type config = {
  merge_threshold : float;
  split_threshold : float;
  cse_scope : Bytecode_backend.cse_scope;
}

let default_config =
  {
    merge_threshold = 50.;
    split_threshold = 4000.;
    cse_scope = Bytecode_backend.Cse_per_task;
  }

type analysis = {
  graph : Om_graph.Digraph.t;
  comps : Om_graph.Scc.components;
  condensed : Om_graph.Digraph.t;
  nontrivial : int list;
  scc_weights : float array;
}

type result = {
  model : Om_lang.Flat_model.t;
  assigns : Assignments.t array;
  plan : Partition.plan;
  compiled : Bytecode_backend.t;
  tasks : Om_sched.Task.t array;
  analysis : analysis;
}

let analyse (m : Om_lang.Flat_model.t) =
  let graph = Om_lang.Flat_model.dependency_graph m in
  let comps = Om_graph.Scc.tarjan graph in
  let condensed = Om_graph.Scc.condensation graph comps in
  let nontrivial = Om_graph.Scc.nontrivial graph comps in
  let eq_cost =
    Array.of_list
      (List.map (fun (_, e) -> Om_expr.Cost.flops_mean e) m.equations)
  in
  let scc_weights =
    Array.map
      (fun members ->
        List.fold_left (fun acc v -> acc +. eq_cost.(v)) 0. members)
      comps.members
  in
  { graph; comps; condensed; nontrivial; scc_weights }

(* Process-global counters: the serve-layer model cache asserts cache
   hits skip compilation entirely by watching [compiles] (front ends);
   [backs] counts the per-task back ends forced, which a sequential job
   must leave alone, and [jacobians] the symbolic Jacobians derived,
   which a run that makes no Jacobian call must leave alone. *)
let compiles = Atomic.make 0
let compile_count () = Atomic.get compiles
let backs = Atomic.make 0
let back_count () = Atomic.get backs
let jacobians = Atomic.make 0
let jacobian_count () = Atomic.get jacobians

(* The per-task back end: partition, per-task CSE and lowering, the
   schedulable tasks and the dependency analysis.  The sequential
   program is the front's. *)
let back ~config ?optimize ~sequential (m : Om_lang.Flat_model.t) =
  Atomic.incr backs;
  let assigns = Assignments.of_flat_model m in
  let plan =
    Partition.partition ~merge_threshold:config.merge_threshold
      ~split_threshold:config.split_threshold assigns
  in
  Partition.validate plan;
  let state_names = Om_lang.Flat_model.state_names m in
  let compiled =
    Bytecode_backend.compile ~scope:config.cse_scope ?optimize ~sequential
      plan ~state_names
  in
  let tasks =
    Array.map
      (fun (ct : Bytecode_backend.compiled_task) ->
        Om_sched.Task.make ~id:ct.id ~label:ct.label ~cost:ct.static_cost
          ~reads:ct.reads ~writes:ct.writes)
      compiled.tasks
  in
  Om_sched.Task.validate tasks;
  { model = m; assigns; plan; compiled; tasks; analysis = analyse m }

type model = {
  flat : Om_lang.Flat_model.t;
  sparsity : Om_ode.Sparse.pattern Once.t;
  rhs : Om_expr.Vm.program Once.t;
  jacobian : Om_expr.Vm.program Once.t;
  full : result Once.t;
}

(* A model over [m] whose stages are built on first use.  [reads] are
   the equations' read sets when the caller already walked them; else
   the sparsity stage walks them.  The pattern is a stage, not part of
   the front, so that [compile] and [compile_source] build nothing they
   did not build before. *)
let stages ?optimize ?reads (m : Om_lang.Flat_model.t) ~rhs ~full =
  let sparsity =
    let names = Om_lang.Flat_model.state_names m in
    Once.make (fun () ->
        let reads =
          match reads with
          | Some r -> r
          | None -> List.map (fun (_, e) -> Om_expr.Expr.vars e) m.equations
        in
        Om_ode.Odesys.pattern_of_reads names reads)
  in
  let jacobian =
    Once.make (fun () ->
        Atomic.incr jacobians;
        Om_ode.Odesys.jacobian_program ?optimize (Once.force sparsity)
          m.equations)
  in
  { flat = m; sparsity; rhs; jacobian; full }

let front ?(config = default_config) ?optimize ?reads
    (m : Om_lang.Flat_model.t) =
  Atomic.incr compiles;
  let rhs =
    Once.make (fun () -> Om_ode.Odesys.rhs_program ?optimize m.equations)
  in
  let sequential () = Once.force rhs in
  stages ?optimize ?reads m ~rhs
    ~full:(Once.make (fun () -> back ~config ?optimize ~sequential m))

let model_of_flat ?config ?optimize m = front ?config ?optimize m

let model_of_source ?config ?optimize source =
  let fm = Om_lang.Flatten.flatten_string source in
  let reads = Om_lang.Typecheck.check_reads fm in
  front ?config ?optimize ~reads fm

let flat_model m = m.flat
let sparsity m = Once.force m.sparsity
let rhs_program m = Once.force m.rhs
let jacobian_program m = Once.force m.jacobian
let result m = Once.force m.full

let sequential_fn m =
  let program = Om_expr.Vm.clone_scratch (rhs_program m) in
  let dim = Om_lang.Flat_model.dim m.flat in
  let env = Array.make (dim + 1) 0. in
  fun t y ydot ->
    Array.blit y 0 env 0 dim;
    env.(dim) <- t;
    Om_expr.Vm.exec program ~env ~out:ydot

let system m f =
  let dim = Om_lang.Flat_model.dim m.flat in
  let sparsity = sparsity m in
  let jac, sjac =
    Om_ode.Odesys.symbolic_jacobian ~dim sparsity (fun () ->
        Om_expr.Vm.clone_scratch (jacobian_program m))
  in
  Om_ode.Odesys.make ~names:(Om_lang.Flat_model.state_names m.flat) ~jac
    ~sparsity ~sjac ~dim f

let of_result r =
  stages r.model
    ~rhs:(Once.make r.compiled.sequential)
    ~full:(Once.make (fun () -> r))

let compile ?config ?optimize m = result (model_of_flat ?config ?optimize m)

(* Everything in a result except the executable backend is immutable
   analysis data; sharing it across clones keeps per-job cloning at a
   few array allocations. *)
let clone_scratch r =
  { r with compiled = Bytecode_backend.clone_scratch r.compiled }

let source_key source = Digest.to_hex (Digest.string source)

let compile_source ?config ?optimize source =
  result (model_of_source ?config ?optimize source)

let system_level_speedup a ~comm ~nprocs =
  Om_sched.Dag_sched.speedup a.condensed ~weights:a.scc_weights ~comm ~nprocs

let rhs_fn r t y ydot = Bytecode_backend.rhs_fn r.compiled t y ydot
