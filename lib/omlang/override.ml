exception Unknown_target of string

exception Shadowed of string

let frozen ~cls ~param = param ^ "'" ^ cls

let is_frozen name = String.contains name '\''

(* Rewrite every [parameter param] member of class [cls] with [f]. *)
let map_parameter (m : Ast.model) ~cls ~param f =
  let found = ref false in
  let classes =
    List.map
      (fun (c : Ast.class_def) ->
        if c.cname <> cls then c
        else
          let members =
            List.concat_map
              (fun (mem : Ast.member) ->
                match mem with
                | Parameter (n, default) when n = param ->
                    found := true;
                    f default
                | m -> [ m ])
              c.members
          in
          { c with members })
      m.classes
  in
  if not !found then
    raise
      (Unknown_target (Printf.sprintf "parameter %s of class %s" param cls));
  classes

let set_parameter m ~cls ~param value =
  let classes =
    map_parameter m ~cls ~param (fun _ -> [ Ast.Parameter (param, Snum value) ])
  in
  { m with classes }

(* The parameter keeps its place and its name, so every [with] binding
   rebinds it as before; its default reads the frozen state declared
   just ahead of it, at the member position the parameter had. *)
let promote_parameter m ~cls ~param =
  let hidden = frozen ~cls ~param in
  let classes =
    map_parameter m ~cls ~param (fun default ->
        [
          Ast.Variable (hidden, default);
          Ast.Parameter (param, Sname (Ast.name_of_string hidden));
        ])
  in
  let classes =
    List.map
      (fun (c : Ast.class_def) ->
        if c.cname <> cls then c
        else { c with members = c.members @ [ Ast.Equation (hidden, Snum 0.) ] })
      classes
  in
  { m with classes }

(* A class default is replaced by an [extends ... with] binding or a
   member of the same name in a subclass, and by a [with] binding on a
   part or an instance of the class or of a subclass. *)
let shadowed (m : Ast.model) ~cls ~param =
  let parent (c : Ast.class_def) = Option.map fst c.parent in
  let rec descends seen (c : Ast.class_def) =
    c.cname = cls
    ||
    match parent c with
    | Some p when not (List.mem p seen) -> (
        match List.find_opt (fun (d : Ast.class_def) -> d.cname = p) m.classes with
        | Some d -> descends (p :: seen) d
        | None -> false)
    | _ -> false
  in
  let family =
    List.filter_map
      (fun (c : Ast.class_def) -> if descends [] c then Some c.cname else None)
      m.classes
  in
  let binds bs = List.mem_assoc param bs in
  let declares (c : Ast.class_def) =
    List.exists
      (function
        | Ast.Parameter (n, _) | Variable (n, _) | Alias (n, _) | Part (n, _, _)
          ->
            n = param
        | Equation _ -> false)
      c.members
  in
  let sites =
    List.concat_map
      (fun (c : Ast.class_def) ->
        (match c.parent with
        | Some (p, bs) when List.mem p family && (binds bs || declares c) ->
            [ Printf.sprintf "class %s extends %s" c.cname p ]
        | _ -> [])
        @ List.filter_map
            (function
              | Ast.Part (pname, pcls, bs) when List.mem pcls family && binds bs
                ->
                  Some (Printf.sprintf "part %s of class %s" pname c.cname)
              | _ -> None)
            c.members)
      m.classes
    @ List.filter_map
        (fun (i : Ast.instance_def) ->
          if List.mem i.icls family && binds i.ibindings then
            Some ("instance " ^ i.iname)
          else None)
        m.instances
  in
  Shadowed
    (match sites with
    | [] -> Printf.sprintf "class %s is not instantiated" cls
    | _ ->
        Printf.sprintf "parameter %s of class %s is rebound by %s" param cls
          (String.concat ", " sites))
