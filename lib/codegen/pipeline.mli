(** End-to-end code-generation pipeline (paper Figure 9): flat model →
    assignments → dependency analysis → partitioning → CSE → executable
    tasks → schedulable task set. *)

type config = {
  merge_threshold : float;  (** group small assignments up to this cost *)
  split_threshold : float;  (** split assignments above this cost *)
  cse_scope : Bytecode_backend.cse_scope;
}

val default_config : config

(** Equation-system-level dependency analysis (paper §2.1, Figures 3/6). *)
type analysis = {
  graph : Om_graph.Digraph.t;  (** state-variable dependency graph *)
  comps : Om_graph.Scc.components;
  condensed : Om_graph.Digraph.t;  (** reduced acyclic graph of SCCs *)
  nontrivial : int list;  (** SCC ids that are real equation systems *)
  scc_weights : float array;  (** flop cost of each SCC's equations *)
}

type result = {
  model : Om_lang.Flat_model.t;
  assigns : Assignments.t array;
  plan : Partition.plan;
  compiled : Bytecode_backend.t;
  tasks : Om_sched.Task.t array;  (** schedulable view of the tasks *)
  analysis : analysis;
}

val analyse : Om_lang.Flat_model.t -> analysis

(** {2 The compiled model: an eager front, lazy stages}

    One path from model text to the code that runs (paper Figure 9).
    The front is built eagerly, so every model error surfaces at
    compile time: flatten, and typecheck, which walks each equation's
    read set once ([Om_lang.Typecheck.check_reads]).  Every later stage
    is built on first use, once, whichever domain asks first
    ({!Once}):
    - the sparsity pattern, from the read sets ({!sparsity});
    - the sequential program, the right-hand sides lowered as one DAG
      ({!rhs_program}), which every sequential path runs;
    - the symbolic-Jacobian program ({!jacobian_program}), which every
      {!system} of the model runs from its first Jacobian call;
    - the per-task back end ({!val:result}): partition, per-task CSE and
      lowering, the schedulable tasks and the dependency analysis, which
      only the simulated machine, real worker domains and the textual
      backends need.  Its [compiled.sequential ()] is the front's
      program, physically: a model lowers its right-hand sides once.

    A model is immutable once built and may be shared between domains:
    the serve layer caches models, and its executors run them without a
    lock. *)

type model

val model_of_source : ?config:config -> ?optimize:bool -> string -> model
(** The front of a model source text: flatten it
    ([Om_lang.Flatten.flatten_string]) and re-validate the flat model
    ([Om_lang.Typecheck.check_reads]).  Counts one {!compile_count}.
    [config] and [optimize] apply when the stages are built.
    @raise Om_lang.Lexer.Error, [Om_lang.Parser.Error],
    [Om_lang.Flatten.Error] or [Invalid_argument] on ill-formed
    sources (the caller maps these to its model-error status). *)

val model_of_flat :
  ?config:config -> ?optimize:bool -> Om_lang.Flat_model.t -> model
(** The front of a flat model, trusted as it is: no typecheck, and the
    read sets are walked when {!sparsity} is first asked for.  Counts
    one {!compile_count}. *)

val of_result : result -> model
(** A model over a result already built: its stages are the result's
    (the sequential program is [compiled.sequential ()]); the read sets
    are walked when {!sparsity} is first asked for.  Counts nothing. *)

val flat_model : model -> Om_lang.Flat_model.t

val sparsity : model -> Om_ode.Sparse.pattern
(** The structural pattern of df/dy: the equations' read sets
    ({!Om_ode.Odesys.pattern_of_reads}), built on the first call. *)

val rhs_program : model -> Om_expr.Vm.program
(** The sequential program ({!Om_ode.Odesys.rhs_program} of the
    equations), built on the first call.  Shared: run a
    {!Om_expr.Vm.clone_scratch} of it, which owns its register file. *)

val sequential_fn : model -> float -> float array -> float array -> unit
(** [sequential_fn m] is a fresh sequential evaluator: [f t y ydot]
    runs {!rhs_program} on its own register file and value vector, and
    writes the derivatives into [ydot].  Int64-bitwise {!rhs_fn} of
    [result m], and allocation-free after the call that makes it; use
    each evaluator from one domain at a time.  Builds no per-task
    stage. *)

val jacobian_program : model -> Om_expr.Vm.program
(** The symbolic Jacobian ({!Om_ode.Odesys.jacobian_program} over
    {!sparsity}), built on the first call.  Shared, like
    {!rhs_program}. *)

val system :
  model -> (float -> float array -> float array -> unit) -> Om_ode.Odesys.t
(** [system m f] is the ODE system of [m] with right-hand side [f]: the
    one builder of every path that integrates a compiled model (the
    runtime at every execution mode, [omc simulate], the sweeps).  It
    carries the model's state names, its {!sparsity} and, as [jac] and
    [sjac], its symbolic Jacobian (the paper's §3.2.1 "extra function
    dedicated to computing the Jacobian"), so the stiff solvers take no
    finite differences on a compiled model.  The Jacobian program is
    derived ({!jacobian_program}, once per model) on the system's first
    Jacobian call, never here: a run that makes no Jacobian call derives
    none ({!jacobian_count}).  Each system runs it on a
    {!Om_expr.Vm.clone_scratch} of its own, so systems of one shared
    model may run on several domains at once; use each from one domain
    at a time.  [f] is typically {!sequential_fn}[ m], or any callback
    Int64-bitwise equal to it (the runtime's guarded rounds), which
    makes trajectories bitwise equal across the paths. *)

val result : model -> result
(** The per-task back end, built on the first call (which counts one
    {!back_count}); every later call returns the same result.  Shared:
    execute a {!clone_scratch} of it. *)

val compile : ?config:config -> ?optimize:bool -> Om_lang.Flat_model.t -> result
(** [result (model_of_flat m)].  [optimize] is forwarded to
    {!Bytecode_backend.compile} and {!Om_ode.Odesys.rhs_program}; the
    default (peephole on) is what every driver uses.  The fuzz oracle
    turns it off to check that the peephole pass is bit-preserving. *)

val clone_scratch : result -> result
(** An independently executable view of a compiled result: the model,
    plan, task metadata and analysis are shared (all immutable), and the
    executable backend is {!Bytecode_backend.clone_scratch}d so the
    clone's mutable evaluation state (value environment, output slots,
    register files) is its own.  This is what lets a cached artifact run
    on several executors at once: clone per job, no per-entry lock. *)

val compile_count : unit -> int
(** Process-global number of fronts built so far ({!model_of_source},
    {!model_of_flat}, and so {!compile} and {!compile_source}): an
    atomic counter, safe to read from any domain.  The serve layer's
    model cache asserts that cache hits really skip flatten, typecheck
    and code generation by sampling it around a lookup. *)

val back_count : unit -> int
(** Process-global number of per-task back ends built so far (first
    {!val:result} calls).  A sequential run of a model leaves it alone. *)

val jacobian_count : unit -> int
(** Process-global number of symbolic-Jacobian programs derived so far
    (first {!jacobian_program} calls, which {!system} makes on a
    system's first Jacobian call).  A run that makes no Jacobian call
    leaves it alone. *)

val source_key : string -> string
(** Content hash of a model source text (hex digest) — the key the
    compiled-model cache ([Om_serve.Model_cache]) memoises
    {!model_of_source} under.  Equal sources get equal keys regardless
    of tenant, file name or submission time. *)

val compile_source : ?config:config -> ?optimize:bool -> string -> result
(** [result (model_of_source source)]: the whole compile, with the
    sequential program still built on first use.
    @raise Om_lang.Lexer.Error, [Om_lang.Parser.Error],
    [Om_lang.Flatten.Error] or [Invalid_argument] on ill-formed
    sources. *)

val system_level_speedup : analysis -> comm:float -> nprocs:int -> float
(** Speedup attainable by solving SCC subsystems in parallel on the
    condensation DAG — the paper's first parallelisation approach. *)

val rhs_fn : result -> float -> float array -> float array -> unit
(** Sequential reference execution of the generated code: the unsplit
    right-hand sides as one program ({!Bytecode_backend.rhs_fn}),
    Int64-bitwise equal to a parallel round and, split or not, to
    {!Om_expr.Eval.eval} of the flat equations (up to the sign of
    zero). *)
