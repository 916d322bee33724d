exception Unknown_target of string

let set_parameter (m : Ast.model) ~cls ~param value =
  let found = ref false in
  let classes =
    List.map
      (fun (c : Ast.class_def) ->
        if c.cname <> cls then c
        else
          let members =
            List.map
              (fun (mem : Ast.member) ->
                match mem with
                | Parameter (n, _) when n = param ->
                    found := true;
                    Ast.Parameter (n, Snum value)
                | m -> m)
              c.members
          in
          { c with members })
      m.classes
  in
  if not !found then
    raise
      (Unknown_target (Printf.sprintf "parameter %s of class %s" param cls));
  { m with classes }

let set_instance_binding (m : Ast.model) ~instance ~name expr =
  let found = ref false in
  let instances =
    List.map
      (fun (i : Ast.instance_def) ->
        if i.iname <> instance then i
        else begin
          found := true;
          let ibindings =
            (name, expr) :: List.remove_assoc name i.ibindings
          in
          { i with ibindings }
        end)
      m.instances
  in
  if not !found then
    raise (Unknown_target (Printf.sprintf "instance %s" instance));
  { m with instances }

exception Structural of string

(* Promotion turns a class parameter into a frozen state variable
   ([x' = 0] with the default as initial value), so a sweep or ensemble
   can vary it per member through the state vector without recompiling.
   This only preserves the model's meaning when nothing rebinds the
   parameter structurally: a [with] binding naming it (inheritance,
   part, or instance) would rebind a parameter but silently shadow or
   conflict with a variable.  We detect any such binding conservatively
   and refuse, letting callers fall back to per-value re-elaboration. *)
let promote_parameter (m : Ast.model) ~cls ~param =
  let exists =
    List.exists
      (fun (c : Ast.class_def) ->
        c.cname = cls
        && List.exists
             (function Ast.Parameter (n, _) -> n = param | _ -> false)
             c.members)
      m.classes
  in
  if not exists then
    raise
      (Unknown_target (Printf.sprintf "parameter %s of class %s" param cls));
  let check_bindings where bs =
    if List.mem_assoc param bs then
      raise
        (Structural
           (Printf.sprintf "parameter %s of class %s is rebound by %s" param
              cls where))
  in
  List.iter
    (fun (c : Ast.class_def) ->
      (match c.parent with
      | Some (p, bs) when p = cls ->
          check_bindings (Printf.sprintf "class %s extends" c.cname) bs
      | _ -> ());
      List.iter
        (function
          | Ast.Part (pname, pcls, bs) when pcls = cls ->
              check_bindings
                (Printf.sprintf "part %s of class %s" pname c.cname)
                bs
          | _ -> ())
        c.members)
    m.classes;
  List.iter
    (fun (i : Ast.instance_def) ->
      if i.icls = cls then
        check_bindings (Printf.sprintf "instance %s" i.iname) i.ibindings)
    m.instances;
  let classes =
    List.map
      (fun (c : Ast.class_def) ->
        if c.cname <> cls then c
        else
          let members =
            List.map
              (fun (mem : Ast.member) ->
                match mem with
                | Parameter (n, default) when n = param ->
                    Ast.Variable (n, default)
                | m -> m)
              c.members
          in
          { c with members = members @ [ Ast.Equation (param, Snum 0.) ] })
      m.classes
  in
  { m with classes }

exception Shadowed of string

(* A class default reaches a model through its instances, its parts and
   its subclasses.  When the model uses [cls] through instances only,
   and each of them rebinds [param] with a [with] binding, a new default
   changes nothing. *)
let check_reached (m : Ast.model) ~cls ~param =
  let elsewhere =
    List.exists
      (fun (c : Ast.class_def) ->
        (match c.parent with Some (p, _) -> p = cls | None -> false)
        || List.exists
             (function Ast.Part (_, pc, _) -> pc = cls | _ -> false)
             c.members)
      m.classes
  in
  match List.filter (fun (i : Ast.instance_def) -> i.icls = cls) m.instances with
  | _ :: _ as users
    when (not elsewhere)
         && List.for_all
              (fun (i : Ast.instance_def) -> List.mem_assoc param i.ibindings)
              users ->
      raise
        (Shadowed
           (Printf.sprintf "parameter %s of class %s is rebound by %s" param
              cls
              (String.concat ", "
                 (List.map (fun (i : Ast.instance_def) -> "instance " ^ i.iname) users))))
  | _ -> ()

let flatten_with ~source ~overrides =
  let ast = Parser.parse_model source in
  let ast =
    List.fold_left
      (fun ast (cls, param, value) ->
        let ast = set_parameter ast ~cls ~param value in
        check_reached ast ~cls ~param;
        ast)
      ast overrides
  in
  Flatten.flatten ast
