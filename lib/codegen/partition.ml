module E = Om_expr.Expr

type task = {
  tid : int;
  label : string;
  roots : (int * E.t) list;
}

type plan = {
  dim : int;
  rhs : E.t array;
  n_partials : int;
  tasks : task array;
  epilogue : (int * E.t) list;
  epilogue_flops : float;
}

let n_slots p = p.dim + p.n_partials
let partial_name k = Printf.sprintf "partial$%d" k

let flops es =
  List.fold_left (fun acc e -> acc +. Om_expr.Cost.flops_mean e) 0. es

let cost roots = flops (List.map snd roots)

(* The subtrees a split may hoist out of [e]: the terms of a sum, of a
   product's one sum factor, or of a unilateral If's arm — with the
   nodes passed through to reach them, [e] and the sum included. *)
let rec parts path (e : E.t) =
  match e with
  | E.Add (ts, _) -> Some (e :: path, ts)
  | E.Mul (fs, _) -> (
      match List.filter (function E.Add _ -> true | _ -> false) fs with
      | [ sum ] -> parts (e :: path) sum
      | _ -> None)
  | E.If (_, a, E.Const 0., _) -> parts (e :: path) a
  | _ -> None

(* Hoisting: the subtrees of [rhs] that worker tasks compute, each into
   its own partial slot.  A subtree is split further through its
   [parts] while it costs more than [budget] and the parts carry most of
   that cost: what a descent leaves behind, the residual computes on the
   supervisor.  Leaves stay where they are, and a subtree reached twice
   is hoisted once.  Also returns the nodes passed through: the spine
   the residual rebuilds. *)
let hoist budget rhs =
  let hoisted = ref [] and spine = ref [] in
  let rec descend e =
    let c = Om_expr.Cost.flops_mean e in
    match parts [] e with
    | Some (path, ts) when c > budget && 2. *. flops ts > c ->
        spine := path @ !spine;
        List.iter go ts;
        true
    | _ -> false
  and go e =
    match e with
    | E.Const _ | E.Var _ -> ()
    | _ when List.memq e !hoisted -> ()
    | _ -> if not (descend e) then hoisted := e :: !hoisted
  in
  ignore (descend rhs);
  (List.rev !hoisted, !spine)

(* The residual: [rhs] with each hoisted subtree replaced by a read of
   its partial slot.  Rebuilt with raw constructors ([map_exact]), so
   every operation and operand order is the original's and the residual
   evaluates to the same bits; subtrees off the spine stay physically
   shared. *)
let residual rhs ~spine slots =
  E.map_exact
    (fun s ->
      match List.assq_opt s slots with
      | Some k -> Some (E.var (partial_name k))
      | None -> if List.memq s spine then None else Some s)
    rhs

(* Split the terms of a sum into chunks of roughly [threshold] cost. *)
let chunk_terms threshold terms =
  let chunks = ref [] and current = ref [] and current_cost = ref 0. in
  List.iter
    (fun term ->
      let c = Om_expr.Cost.flops_mean term in
      if !current <> [] && !current_cost +. c > threshold then begin
        chunks := List.rev !current :: !chunks;
        current := [];
        current_cost := 0.
      end;
      current := term :: !current;
      current_cost := !current_cost +. c)
    terms;
  if !current <> [] then chunks := List.rev !current :: !chunks;
  List.rev !chunks

let partition ?(merge_threshold = 50.) ?(split_threshold = 4000.) assigns =
  let dim = Array.length assigns in
  let budget = split_threshold /. 2. in
  let next_partial = ref 0 in
  let epilogue = ref [] in
  (* Worker work items: (roots, cost, label), before grouping. *)
  let items = ref [] in
  let whole (a : Assignments.t) c =
    items := ([ (a.state_index, a.rhs) ], c, a.state) :: !items
  in
  Array.iter
    (fun (a : Assignments.t) ->
      let c = Assignments.cost a in
      if c <= split_threshold then whole a c
      else
        let hoisted, spine = hoist budget a.rhs in
        match chunk_terms budget hoisted with
        | [] | [ _ ] -> whole a c
        | chunks ->
            let slots = ref [] in
            List.iter
              (fun chunk ->
                let label = Printf.sprintf "%s#%d" a.state !next_partial in
                let roots =
                  List.map
                    (fun e ->
                      slots := (e, !next_partial) :: !slots;
                      incr next_partial;
                      (dim + !next_partial - 1, e))
                    chunk
                in
                items := (roots, cost roots, label) :: !items)
              chunks;
            epilogue :=
              (a.state_index, residual a.rhs ~spine !slots) :: !epilogue)
    assigns;
  let items = List.rev !items in
  (* Group cheap items; expensive ones become singleton tasks. *)
  let tasks = ref [] in
  let flush group =
    match group with
    | [] -> ()
    | _ ->
        let roots = List.concat (List.rev_map (fun (r, _, _) -> r) group) in
        let label =
          match group with
          | [ (_, _, n) ] -> n
          | (_, _, n) :: _ -> Printf.sprintf "%s+%d" n (List.length group - 1)
          | [] -> assert false
        in
        tasks := (label, roots) :: !tasks
  in
  let group = ref [] and group_cost = ref 0. in
  List.iter
    (fun ((_, c, _) as item) ->
      if c >= merge_threshold then begin
        (* Large enough to stand alone. *)
        flush !group;
        group := [];
        group_cost := 0.;
        flush [ item ]
      end
      else begin
        if !group_cost +. c > merge_threshold && !group <> [] then begin
          flush !group;
          group := [];
          group_cost := 0.
        end;
        group := item :: !group;
        group_cost := !group_cost +. c
      end)
    items;
  flush !group;
  let tasks =
    List.rev !tasks
    |> List.mapi (fun tid (label, roots) -> { tid; label; roots })
    |> Array.of_list
  in
  let epilogue = List.rev !epilogue in
  let epilogue_flops = cost epilogue in
  let rhs = Array.make dim E.zero in
  Array.iter (fun (a : Assignments.t) -> rhs.(a.state_index) <- a.rhs) assigns;
  { dim; rhs; n_partials = !next_partial; tasks; epilogue; epilogue_flops }

let validate p =
  if Array.length p.rhs <> p.dim then
    invalid_arg "Partition.validate: rhs length mismatch";
  let written = Array.make (n_slots p) false in
  Array.iter
    (fun t ->
      List.iter
        (fun (slot, _) ->
          if slot < 0 || slot >= n_slots p then
            invalid_arg "Partition.validate: slot out of range";
          if written.(slot) then
            invalid_arg
              (Printf.sprintf "Partition.validate: slot %d written twice" slot);
          written.(slot) <- true)
        t.roots)
    p.tasks;
  List.iter
    (fun (deriv, _) ->
      if deriv < 0 || deriv >= p.dim then
        invalid_arg "Partition.validate: epilogue derivative out of range";
      if written.(deriv) then
        invalid_arg
          (Printf.sprintf
             "Partition.validate: derivative %d both direct and via epilogue"
             deriv);
      written.(deriv) <- true)
    p.epilogue;
  Array.iteri
    (fun i w ->
      if not w then
        invalid_arg
          (Printf.sprintf "Partition.validate: slot %d never produced" i))
    written
