type counters = {
  mutable rhs_calls : int;
  mutable jac_calls : int;
  mutable steps : int;
  mutable rejected : int;
  mutable newton_iters : int;
  mutable lu_factorisations : int;
  mutable retries : int;
}

type jac_mode = Dense | Sparse | Auto

type t = {
  dim : int;
  names : string array;
  f : float -> float array -> float array -> unit;
  jac : (float -> float array -> Linalg.mat -> unit) option;
  mutable sparsity : Sparse.pattern option;
  mutable sjac : (float -> float array -> float array -> unit) option;
  counters : counters;
}

let fresh_counters () =
  {
    rhs_calls = 0;
    jac_calls = 0;
    steps = 0;
    rejected = 0;
    newton_iters = 0;
    lu_factorisations = 0;
    retries = 0;
  }

let reset_counters sys =
  let c = sys.counters in
  c.rhs_calls <- 0;
  c.jac_calls <- 0;
  c.steps <- 0;
  c.rejected <- 0;
  c.newton_iters <- 0;
  c.lu_factorisations <- 0;
  c.retries <- 0

let pp_counters ppf c =
  Fmt.pf ppf "steps=%d rhs=%d jac=%d rejected=%d newton=%d lu=%d retries=%d"
    c.steps c.rhs_calls c.jac_calls c.rejected c.newton_iters
    c.lu_factorisations c.retries

let make ?names ?jac ?sparsity ?sjac ~dim f =
  let names =
    match names with
    | Some a ->
        if Array.length a <> dim then
          invalid_arg "Odesys.make: names length mismatch";
        a
    | None -> Array.init dim (Printf.sprintf "y%d")
  in
  (match (sparsity, sjac) with
  | Some (p : Sparse.pattern), _ when p.rows <> dim || p.cols <> dim ->
      invalid_arg "Odesys.make: sparsity shape mismatch"
  | None, Some _ -> invalid_arg "Odesys.make: sjac without sparsity"
  | _ -> ());
  { dim; names; f; jac; sparsity; sjac; counters = fresh_counters () }

let rhs_into sys t y ydot =
  sys.counters.rhs_calls <- sys.counters.rhs_calls + 1;
  sys.f t y ydot

let rhs sys t y =
  let ydot = Array.make sys.dim 0. in
  rhs_into sys t y ydot;
  ydot

(* Structural sparsity: column j appears in row i iff equation i reads
   state j.  This is the exact read set of the RHS — a superset of the
   nonzero-derivative positions — which is what colored finite
   differences need: a perturbation outside the pattern cannot change
   f_i, so out-of-pattern forward differences are exactly [+0.]. *)
let pattern_of_reads names reads =
  let dim = Array.length names in
  let index = Hashtbl.create (2 * dim) in
  Array.iteri (fun i s -> Hashtbl.replace index s i) names;
  let entries =
    List.concat
      (List.mapi
         (fun i vs ->
           List.filter_map
             (fun v ->
               Option.map (fun c -> (i, c)) (Hashtbl.find_opt index v))
             vs)
         reads)
  in
  Sparse.pattern_of_entries ~rows:dim ~cols:dim entries

let pattern_of_equations eqs =
  pattern_of_reads
    (Array.of_list (List.map fst eqs))
    (List.map (fun (_, e) -> Om_expr.Expr.vars e) eqs)

(* The Jacobian program's statements: each structural entry's
   derivative, stored to its CSR slot.  The rows are interned first, so
   that [Deriv.jacobian] derives each distinct subterm once and every
   derivative built from one reads the same physical node. *)
let jacobian_stmts sparsity eqs =
  let grads =
    Om_expr.Deriv.jacobian
      (Array.of_list (List.map fst eqs))
      (Om_expr.Expr.intern (Array.of_list (List.map snd eqs)))
  in
  let slots = Array.make (Sparse.nnz sparsity) Om_expr.Expr.zero in
  Array.iteri
    (fun i row ->
      Array.iter
        (fun (c, d) ->
          let k = Sparse.index sparsity i c in
          if k >= 0 then slots.(k) <- d)
        row)
    grads;
  List.init (Array.length slots) (fun k -> (slots.(k), Om_expr.Vm.To_out k))

(* The value layout every program of a system reads: states first, then
   time, ["t"]. *)
let layout eqs =
  Om_expr.Layout.of_names (Array.of_list (List.map fst eqs @ [ "t" ]))

let rhs_program ?optimize eqs =
  Om_expr.Vm.compile_stmts ?optimize ~out_size:(List.length eqs)
    (layout eqs)
    (List.mapi (fun i (_, e) -> (e, Om_expr.Vm.To_out i)) eqs)

let jacobian_program ?optimize sparsity eqs =
  Om_expr.Vm.compile_stmts ?optimize ~out_size:(Sparse.nnz sparsity)
    (layout eqs) (jacobian_stmts sparsity eqs)

(* [jac] and [sjac] over one symbolic-Jacobian program, which [program]
   gives on the first call: runs that never ask for a Jacobian never
   differentiate.  A structural entry the program leaves out is [+0.]. *)
let symbolic_jacobian ~dim (sparsity : Sparse.pattern) program =
  let prog = lazy (program ()) in
  let env = Array.make (dim + 1) 0. in
  let vals = Array.make (Sparse.nnz sparsity) 0. in
  let sjac t y (v : float array) =
    Array.blit y 0 env 0 dim;
    env.(dim) <- t;
    Om_expr.Vm.exec (Lazy.force prog) ~env ~out:v
  in
  let jac t y (m : Linalg.mat) =
    sjac t y vals;
    Array.iter (fun row -> Array.fill row 0 dim 0.) m;
    for i = 0 to dim - 1 do
      for k = sparsity.row_ptr.(i) to sparsity.row_ptr.(i + 1) - 1 do
        m.(i).(sparsity.col_ind.(k)) <- vals.(k)
      done
    done
  in
  (jac, sjac)

let of_equations ?(with_symbolic_jacobian = true) eqs =
  let states = List.map fst eqs in
  let module S = Set.Make (String) in
  let state_set =
    List.fold_left
      (fun s v ->
        if S.mem v s then invalid_arg ("Odesys.of_equations: duplicate " ^ v)
        else S.add v s)
      S.empty states
  in
  (* Each equation's variables, read once for the free-variable check
     and the sparsity pattern. *)
  let reads = List.map (fun (_, e) -> Om_expr.Expr.vars e) eqs in
  List.iter
    (List.iter (fun v ->
         if (not (S.mem v state_set)) && v <> "t" then
           invalid_arg ("Odesys.of_equations: free variable " ^ v)))
    reads;
  let dim = List.length eqs in
  let names = Array.of_list states in
  let rhs_prog = rhs_program eqs in
  let buf = Array.make (dim + 1) 0. in
  let f t y ydot =
    Array.blit y 0 buf 0 dim;
    buf.(dim) <- t;
    Om_expr.Vm.exec rhs_prog ~env:buf ~out:ydot
  in
  let sparsity = pattern_of_reads names reads in
  let jac, sjac =
    if not with_symbolic_jacobian then (None, None)
    else
      let jac, sjac =
        symbolic_jacobian ~dim sparsity (fun () ->
            jacobian_program sparsity eqs)
      in
      (Some jac, Some sjac)
  in
  { dim; names; f; jac; sparsity = Some sparsity; sjac;
    counters = fresh_counters () }

type trajectory = { ts : float array; states : float array array }

let final_state tr = tr.states.(Array.length tr.states - 1)

let sample tr ~times =
  let n = Array.length tr.ts in
  if n = 0 then invalid_arg "Odesys.sample: empty trajectory";
  let dim = Array.length tr.states.(0) in
  Array.map
    (fun t ->
      if t <= tr.ts.(0) then Array.copy tr.states.(0)
      else if t >= tr.ts.(n - 1) then Array.copy tr.states.(n - 1)
      else begin
        (* Binary search for the bracketing step. *)
        let lo = ref 0 and hi = ref (n - 1) in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if tr.ts.(mid) <= t then lo := mid else hi := mid
        done;
        let t0 = tr.ts.(!lo) and t1 = tr.ts.(!hi) in
        let w = if t1 > t0 then (t -. t0) /. (t1 -. t0) else 0. in
        Array.init dim (fun i ->
            tr.states.(!lo).(i)
            +. (w *. (tr.states.(!hi).(i) -. tr.states.(!lo).(i))))
      end)
    times

let column tr name sys =
  let idx =
    match Array.find_index (fun n -> n = name) sys.names with
    | Some i -> i
    | None -> invalid_arg ("Odesys.column: unknown state " ^ name)
  in
  Array.map (fun y -> y.(idx)) tr.states
