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

val compile : ?config:config -> ?optimize:bool -> Om_lang.Flat_model.t -> result
(** [optimize] is forwarded to {!Bytecode_backend.compile}; the default
    (peephole on) is what every driver uses.  The fuzz oracle turns it
    off to check that the peephole pass is bit-preserving. *)

val clone_scratch : result -> result
(** An independently executable view of a compiled result: the model,
    plan, task metadata and analysis are shared (all immutable), and the
    executable backend is {!Bytecode_backend.clone_scratch}d so the
    clone's mutable evaluation state (value environment, output slots,
    register files) is its own.  This is what lets a cached artifact run
    on several executors at once: clone per job, no per-entry lock. *)

val compile_count : unit -> int
(** Process-global number of {!compile} invocations so far (an atomic
    counter, safe to read from any domain).  The serve layer's model
    cache asserts that cache hits really skip
    flatten/typecheck/codegen by sampling it around a lookup. *)

val source_key : string -> string
(** Content hash of a model source text (hex digest) — the key the
    compiled-model cache ([Om_serve.Model_cache]) memoises
    {!compile_source} under.  Equal sources get equal keys regardless of
    tenant, file name or submission time. *)

val compile_source : ?config:config -> ?optimize:bool -> string -> result
(** The cache-friendly whole-frontend entry: flatten the source text
    ([Om_lang.Flatten.flatten_string]), re-validate the flat model
    ([Om_lang.Typecheck.check]) and {!compile} it — exactly the work a
    cache hit skips.
    @raise Om_lang.Lexer.Error, [Om_lang.Parser.Error],
    [Om_lang.Flatten.Error] or [Invalid_argument] on ill-formed
    sources (the caller maps these to its model-error status). *)

val system_level_speedup : analysis -> comm:float -> nprocs:int -> float
(** Speedup attainable by solving SCC subsystems in parallel on the
    condensation DAG — the paper's first parallelisation approach. *)

val rhs_fn : result -> float -> float array -> float array -> unit
(** Sequential reference execution of the generated code: the unsplit
    right-hand sides as one program ({!Bytecode_backend.rhs_fn}),
    Int64-bitwise equal to a parallel round and, split or not, to
    {!Om_expr.Eval.eval} of the flat equations (up to the sign of
    zero). *)
