exception Error of string

module E = Om_expr.Expr
module Smap = Map.Make (String)

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Inheritance resolution: merge parent members into the child, child
   definitions overriding same-named parent members, [extends ... with]
   bindings rewriting parent parameter defaults. *)

let member_key : Ast.member -> string = function
  | Parameter (n, _) -> "d:" ^ n  (* parameters, aliases and variables *)
  | Variable (n, _) -> "d:" ^ n   (* share one namespace *)
  | Alias (n, _) -> "d:" ^ n
  | Part (n, _, _) -> "d:" ^ n
  | Equation (n, _) -> "e:" ^ n

let resolve_class ?referrer classes cname =
  let rec resolve seen cname =
    if List.mem cname seen then
      err "inheritance cycle through class %s (chain: %s)" cname
        (String.concat " -> " (List.rev (cname :: seen)));
    let cls =
      match Hashtbl.find_opt classes cname with
      | Some c -> c
      | None -> (
          match (seen, referrer) with
          | child :: _, _ ->
              err "unknown class %s (parent of class %s)" cname child
          | [], Some r ->
              err "unknown class %s (instantiated as %s)" cname r
          | [], None -> err "unknown class %s" cname)
    in
    match cls.Ast.parent with
    | None -> cls.members
    | Some (pname, bindings) ->
        let inherited = resolve (cname :: seen) pname in
        (* Apply [with] bindings to parent parameters. *)
        let inherited =
          List.fold_left
            (fun members (k, e) ->
              let found = ref false in
              let members =
                List.map
                  (function
                    | Ast.Parameter (n, _) when n = k ->
                        found := true;
                        Ast.Parameter (n, e)
                    | m -> m)
                  members
              in
              if not !found then
                err "class %s: 'extends %s with %s = ...' does not match a \
                     parameter of %s"
                  cname pname k pname;
              members)
            inherited bindings
        in
        (* Child members override same-keyed inherited members. *)
        let child_keys = List.map member_key cls.members in
        List.filter
          (fun m -> not (List.mem (member_key m) child_keys))
          inherited
        @ cls.members
  in
  resolve [] cname

(* ------------------------------------------------------------------ *)
(* Elaboration contexts. *)

type local_kind = Kdef  (* parameter, variable or alias *) | Kpart

type ctx = {
  classes : (string, Ast.class_def) Hashtbl.t;
  prefix : string;  (* dotted path of the instance being elaborated *)
  locals : (string, local_kind) Hashtbl.t;  (* read-only once built *)
  bindings : E.t Smap.t;  (* imported names, already elaborated *)
}

let qualified prefix n = if prefix = "" then n else prefix ^ "." ^ n

(* Accumulated flat declarations. *)
type acc = {
  mutable defs : (string * E.t) list;  (* parameters and aliases, reversed *)
  mutable states : (string * E.t) list;  (* name, init expr, reversed *)
  mutable eqs : (string * E.t) list;  (* state, rhs, reversed *)
}

let rec elab ctx (e : Ast.sexpr) : E.t =
  match e with
  | Snum x -> E.const x
  | Sneg a -> E.neg (elab ctx a)
  | Sbin (op, a, b) -> (
      let a = elab ctx a and b = elab ctx b in
      match op with
      | Badd -> E.add [ a; b ]
      | Bsub -> E.sub a b
      | Bmul -> E.mul [ a; b ]
      | Bdiv -> E.div a b
      | Bpow -> E.pow a b)
  | Scall (f, args) -> (
      let args = List.map (elab ctx) args in
      match E.func_of_name f with
      | Some fn ->
          if List.length args <> E.func_arity fn then
            err "function %s expects %d arguments" f (E.func_arity fn);
          E.call fn args
      | None -> err "unknown function %s" f)
  | Sif (c, a, b) ->
      E.if_
        (E.cond (elab ctx c.sc_lhs) c.sc_rel (elab ctx c.sc_rhs))
        (elab ctx a) (elab ctx b)
  | Sname n -> elab_name ctx n

and seg_string ctx ({ base; index } : Ast.segment) =
  match index with
  | None -> base
  | Some ix -> (
      match elab ctx ix with
      | E.Const k when Float.is_integer k ->
          Printf.sprintf "%s[%d]" base (int_of_float k)
      | _ -> err "index of %s does not reduce to an integer constant" base)

and elab_name ctx ({ segments } : Ast.name) : E.t =
  match segments with
  | [] -> assert false
  | [ { base = "time"; index = None } ] -> E.var "t"
  | [ { base; index = None } ] when Smap.mem base ctx.bindings ->
      Smap.find base ctx.bindings
  | { base; index = None } :: rest when Hashtbl.mem ctx.locals base -> (
      match (Hashtbl.find ctx.locals base, rest) with
      | Kdef, [] -> E.var (qualified ctx.prefix base)
      | Kdef, _ :: _ ->
          err "%s is not a part; cannot select %s.%s in %s" base base
            (String.concat "." (List.map (fun s -> s.Ast.base) rest))
            (if ctx.prefix = "" then "top level" else ctx.prefix)
      | Kpart, [] -> err "part %s used as a value" base
      | Kpart, rest ->
          let tail = List.map (seg_string ctx) rest in
          E.var
            (String.concat "." (qualified ctx.prefix base :: tail)))
  | segs ->
      (* Global reference to another instance's member, e.g. Outer.omega
         or W[3].x; validated once all instances are flattened. *)
      E.var (String.concat "." (List.map (seg_string ctx) segs))

(* ------------------------------------------------------------------ *)

(* A later member of the same name replaces an earlier one. *)
let local_table members =
  let h = Hashtbl.create (List.length members) in
  List.iter
    (fun (mem : Ast.member) ->
      match mem with
      | Parameter (n, _) | Variable (n, _) | Alias (n, _) ->
          Hashtbl.replace h n Kdef
      | Part (n, _, _) -> Hashtbl.replace h n Kpart
      | Equation _ -> ())
    members;
  h

(* Re-raise elaboration errors with the class member being elaborated, so
   a bad expression deep inside an inheritance chain or part tree names
   its definition site instead of surfacing as a bare message. *)
let in_member ~cls what name f =
  try f ()
  with Error msg -> err "class %s, %s %s: %s" cls what name msg

let rec instantiate classes acc ~prefix ~cls_name ~bindings =
  let members = resolve_class ~referrer:prefix classes cls_name in
  let locals = local_table members in
  (* Names bound at the instantiation site that do not match a declared
     parameter are imports; those matching parameters override defaults. *)
  let param_names =
    List.filter_map
      (function Ast.Parameter (n, _) -> Some n | _ -> None)
      members
  in
  let imports =
    Smap.filter (fun k _ -> not (List.mem k param_names)) bindings
  in
  let ctx = { classes; prefix; locals; bindings = imports } in
  List.iter
    (fun (mem : Ast.member) ->
      match mem with
      | Parameter (n, default) ->
          let value =
            match Smap.find_opt n bindings with
            | Some pre_elaborated -> pre_elaborated
            | None ->
                in_member ~cls:cls_name "parameter" n (fun () ->
                    elab ctx default)
          in
          acc.defs <- (qualified prefix n, value) :: acc.defs
      | Alias (n, e) ->
          let value =
            in_member ~cls:cls_name "alias" n (fun () -> elab ctx e)
          in
          acc.defs <- (qualified prefix n, value) :: acc.defs
      | Variable (n, init) ->
          let value =
            in_member ~cls:cls_name "variable" n (fun () -> elab ctx init)
          in
          acc.states <- (qualified prefix n, value) :: acc.states
      | Part (pname, pcls, pbindings) ->
          let sub_bindings =
            in_member ~cls:cls_name "part" pname (fun () ->
                List.fold_left
                  (fun m (k, e) -> Smap.add k (elab ctx e) m)
                  Smap.empty pbindings)
          in
          instantiate classes acc
            ~prefix:(qualified prefix pname)
            ~cls_name:pcls ~bindings:sub_bindings
      | Equation (n, rhs) ->
          if not (Hashtbl.mem locals n) then
            err "equation for undeclared variable %s in class %s" n cls_name;
          let rhs =
            in_member ~cls:cls_name "equation der" n (fun () -> elab ctx rhs)
          in
          acc.eqs <- (qualified prefix n, rhs) :: acc.eqs)
    members

(* A name -> value table in which the first binding of a name wins, as
   [List.assoc] does. *)
let first_wins bindings =
  let h = Hashtbl.create (List.length bindings) in
  List.iter (fun (k, v) -> if not (Hashtbl.mem h k) then Hashtbl.add h k v)
    bindings;
  h

(* Substitute parameters and aliases into each other in dependency order,
   then into every equation and initial value. *)
let eliminate_defs defs =
  let g = Om_graph.Digraph.create () in
  List.iter (fun (n, _) -> ignore (Om_graph.Digraph.add_node g n)) defs;
  (* [find_node] gives the first node of a name, as [List.assoc] would. *)
  let node_of n = Om_graph.Digraph.find_node g n in
  List.iter
    (fun (n, e) ->
      List.iter
        (fun v ->
          match node_of v with
          | Some src when v <> n ->
              Om_graph.Digraph.add_edge g src (Option.get (node_of n))
          | Some _ -> err "definition %s refers to itself" n
          | None -> ())
        (E.vars e))
    defs;
  let by_id = Array.of_list defs in
  let order =
    match Om_graph.Topo.sort g with
    | order -> order
    | exception Invalid_argument _ ->
        let comps = Om_graph.Scc.tarjan g in
        let cycle =
          match Om_graph.Scc.nontrivial g comps with
          | c :: _ -> List.map (fun id -> fst by_id.(id)) comps.members.(c)
          | [] -> []
        in
        err "algebraic loop among parameters/aliases (%s)"
          (String.concat " -> " (List.sort String.compare cycle))
  in
  List.fold_left
    (fun resolved id ->
      let n = fst by_id.(id) in
      let e = snd by_id.(Option.get (node_of n)) in
      Smap.add n (Om_expr.Subst.apply_map resolved e) resolved)
    Smap.empty order

(* The parameter and alias definitions as elaborated, the states with
   their initial values as elaborated, the substitution of the resolved
   definitions, and the flat equations. *)
let elaborate (model : Ast.model) =
  let classes = Hashtbl.create 16 in
  List.iter
    (fun (c : Ast.class_def) ->
      if Hashtbl.mem classes c.cname then
        err "duplicate class %s" c.cname;
      Hashtbl.add classes c.cname c)
    model.classes;
  if model.instances = [] then err "model %s declares no instances" model.mname;
  let acc = { defs = []; states = []; eqs = [] } in
  let global_ctx ?index () =
    let bindings =
      match index with
      | Some i -> Smap.singleton "index" (E.int i)
      | None -> Smap.empty
    in
    { classes; prefix = ""; locals = Hashtbl.create 1; bindings }
  in
  List.iter
    (fun (inst : Ast.instance_def) ->
      let expand ~index prefix =
        let ctx = global_ctx ?index () in
        let bindings =
          List.fold_left
            (fun m (k, e) -> Smap.add k (elab ctx e) m)
            (match index with
            | Some i -> Smap.singleton "index" (E.int i)
            | None -> Smap.empty)
            inst.ibindings
        in
        instantiate classes acc ~prefix ~cls_name:inst.icls ~bindings
      in
      match inst.range with
      | None -> expand ~index:None inst.iname
      | Some (lo, hi) ->
          if hi < lo then err "instance %s: empty range" inst.iname;
          for i = lo to hi do
            expand ~index:(Some i) (Printf.sprintf "%s[%d]" inst.iname i)
          done)
    model.instances;
  let defs = List.rev acc.defs in
  let states = List.rev acc.states in
  let eqs = List.rev acc.eqs in
  (* Duplicate detection. *)
  let check_dups what names =
    let seen = Hashtbl.create 64 in
    List.iter
      (fun n ->
        if Hashtbl.mem seen n then err "duplicate %s %s" what n
        else Hashtbl.add seen n ())
      names
  in
  check_dups "definition" (List.map fst defs @ List.map fst states);
  check_dups "equation for" (List.map fst eqs);
  let resolved = eliminate_defs defs in
  let is_state = first_wins (List.map (fun (s, _) -> (s, ())) states) in
  let eq_of = first_wins eqs in
  (* Every state needs exactly one equation, in state order. *)
  let eq_for s =
    match Hashtbl.find_opt eq_of s with
    | Some rhs -> rhs
    | None -> err "no equation for state variable %s" s
  in
  List.iter
    (fun (s, _) ->
      if not (Hashtbl.mem is_state s) then
        err "equation for %s, which is not a state variable" s)
    eqs;
  let subst e = Om_expr.Subst.apply_map resolved e in
  let final_eqs =
    List.map
      (fun (s, _) ->
        let rhs = subst (eq_for s) in
        List.iter
          (fun v ->
            if (not (Hashtbl.mem is_state v)) && v <> "t" then
              err "unresolved name %s in the equation for %s" v s)
          (E.vars rhs);
        (s, rhs))
      states
  in
  (defs, states, subst, final_eqs)

(* Every initial value reduces to a constant.  One that reads a promoted
   parameter's frozen state ([Override.promote_parameter]) reduces at
   that state's own initial value, the parameter's default. *)
let constant_inits subst states =
  let frozen = lazy (first_wins states, Hashtbl.create 8) in
  let rec reduce visiting s e =
    match e with
    | E.Const x -> x
    | e ->
        let visiting = s :: visiting in
        let env = Hashtbl.create 8 in
        List.iter
          (fun v ->
            if not (Override.is_frozen v) || List.mem v visiting then
              err "initial value of %s does not reduce to a constant (%s)" s
                (Fmt.str "%a" E.pp e);
            Hashtbl.replace env v (frozen_value visiting v))
          (E.vars e);
        Om_expr.Eval.eval env e
  and frozen_value visiting v =
    let init_of, values = Lazy.force frozen in
    match Hashtbl.find_opt values v with
    | Some x -> x
    | None ->
        let x =
          match Hashtbl.find_opt init_of v with
          | Some init -> reduce visiting v (subst init)
          | None -> err "unresolved name %s in an initial value" v
        in
        Hashtbl.add values v x;
        x
  in
  List.map (fun (s, init) -> (s, reduce [] s (subst init))) states

let flatten (model : Ast.model) : Flat_model.t =
  let _, states, subst, equations = elaborate model in
  {
    Flat_model.name = model.mname;
    states = constant_inits subst states;
    equations;
  }

type promoted = {
  flat : Flat_model.t;
  inits : (string * E.t) list;
  reached : string list;
}

let flatten_promoted (model : Ast.model) =
  let defs, states, subst, equations = elaborate model in
  {
    flat =
      { name = model.mname; states = constant_inits subst states; equations };
    inits =
      List.filter_map
        (fun (s, init) ->
          if Override.is_frozen s then None
          else match subst init with E.Const _ -> None | e -> Some (s, e))
        states;
    reached =
      List.filter_map
        (function
          | _, E.Var v when Override.is_frozen v -> Some v | _ -> None)
        defs;
  }

let flatten_string src = flatten (Parser.parse_model src)
