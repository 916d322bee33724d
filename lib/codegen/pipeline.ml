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

(* Process-global invocation counter: the serve-layer model cache
   asserts cache hits skip compilation entirely by watching this. *)
let compiles = Atomic.make 0
let compile_count () = Atomic.get compiles

let compile ?(config = default_config) ?optimize (m : Om_lang.Flat_model.t) =
  Atomic.incr compiles;
  let assigns = Assignments.of_flat_model m in
  let plan =
    Partition.partition ~merge_threshold:config.merge_threshold
      ~split_threshold:config.split_threshold assigns
  in
  Partition.validate plan;
  let state_names = Om_lang.Flat_model.state_names m in
  let compiled =
    Bytecode_backend.compile ~scope:config.cse_scope ?optimize plan
      ~state_names
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

(* Everything in a result except the executable backend is immutable
   analysis data; sharing it across clones keeps per-job cloning at a
   few array allocations. *)
let clone_scratch r =
  { r with compiled = Bytecode_backend.clone_scratch r.compiled }

let source_key source = Digest.to_hex (Digest.string source)

let compile_source ?config ?optimize source =
  let fm = Om_lang.Flatten.flatten_string source in
  Om_lang.Typecheck.check fm;
  compile ?config ?optimize fm

let system_level_speedup a ~comm ~nprocs =
  Om_sched.Dag_sched.speedup a.condensed ~weights:a.scc_weights ~comm ~nprocs

let rhs_fn r t y ydot = Bytecode_backend.rhs_fn r.compiled t y ydot
