(** Executable backend: compile a partition plan into runnable tasks.

    The paper's generated Fortran 90 is compiled by an F90 compiler and
    linked with the runtime; here the equivalent executable artifact is a
    register-VM program per task ({!Om_expr.Vm}) over a shared value
    environment, which the parallel executor runs, plus one program of
    the unsplit right-hand sides ({!t.sequential}), which every
    sequential path runs.  Semantics match the textual backends exactly
    (same evaluation order). *)

type cse_scope =
  | Cse_none
  | Cse_per_task  (** parallel mode: no sharing across tasks (§3.3) *)
  | Cse_global  (** serial mode: one task, sharing everywhere *)

type compiled_task = {
  id : int;
  label : string;
  eval : unit -> unit;
      (** evaluate temps then roots; reads the state environment set by
          {!set_state}, writes into {!out}.  The parallel executor's
          unit of work: sequential paths run {!t.run_sequential}
          instead.  Allocates the task's register file on first call. *)
  measured_eval : unit -> float;
      (** like [eval] but returns the branch-resolved flop cost *)
  static_cost : float;  (** mean-branch estimate, includes temps *)
  reads : int list;
  writes : int list;  (** plan slots: derivatives and partials *)
  poison : float -> unit;  (** overwrite every slot in [writes] *)
  program : Om_expr.Vm.program;
      (** the task's register program, shared by every instance — for
          disassembly and instruction statistics, never for execution *)
}

type t = {
  dim : int;
  tasks : compiled_task array;
  set_state : float -> float array -> unit;
  out : float array;  (** the derivatives *)
  run_sequential : unit -> unit;
      (** run {!sequential} over the state environment: the same [out]
          as each task's [eval] in order, then {!run_epilogue},
          Int64-bitwise.  Clones it (a register file) on first call. *)
  sequential : unit -> Om_expr.Vm.program;
      (** {!Partition.plan.rhs}, each stored to its derivative, lowered
          as one DAG over the states and [t]: the program
          [Odesys.rhs_program] builds for the same equations, which is
          where it is built.  {!compile}'s [sequential] argument, when
          given; else built on first call.  Shared by every instance of
          the artifact; safe to call from several domains at once.
          Engines that reinterpret it (e.g. {!Batch_backend}) must not
          [exec] it. *)
  run_epilogue : unit -> unit;
      (** the residuals ({!Partition.plan.epilogue}), over the partials
          the tasks stored *)
  state_names : string array;
  cse_temp_total : int;  (** temporaries across all tasks *)
  vm_instrs : int;  (** static VM instructions across tasks + epilogue *)
  vm_flops : float;  (** static flop units of the VM code *)
  vm_fused : int;  (** fused instructions after the peephole pass *)
  fresh_scratch : unit -> t;
      (** re-instantiate the compiled plans over fresh mutable scratch —
          prefer the {!clone_scratch} wrapper *)
}

val compile :
  ?scope:cse_scope ->
  ?optimize:bool ->
  ?sequential:(unit -> Om_expr.Vm.program) ->
  Partition.plan ->
  state_names:string array ->
  t
(** Default scope is [Cse_per_task].  [optimize] (default [true]) runs
    the peephole pass over every task program and the epilogue, and
    over the sequential program when [compile] builds it; the fuzz
    oracle compiles with [~optimize:false] to check that the pass is
    bit-preserving.  [sequential] is {!t.sequential}: a compiled model
    passes the program it already built for its sequential paths
    ([Om_codegen.Pipeline]), so each model lowers its right-hand sides
    once.  It must be that program for this plan, with the same
    [optimize], and safe to call from several domains at once.  Without
    it, the program is built on the first {!t.sequential} call. *)

val clone_scratch : t -> t
(** An independently runnable instance of the same compiled artifact:
    the lowered register programs are shared —
    they are immutable after {!compile}, and so is the sequential
    program once built — while the value environment, output slots and the
    evaluation closures around them are fresh, and the register files
    are allocated on first use.  No re-lowering, CSE, peephole or validation
    happens, so the cost is a few array allocations: cheap enough to
    call at every job start.  Clone and original may execute
    concurrently from different domains; the serve layer clones one
    scratch per executor instead of locking the cached artifact. *)

val rhs_fn : t -> float -> float array -> float array -> unit
(** Sequential execution: set the state, run the sequential program
    ({!t.run_sequential}), copy the derivatives out.  Int64-bitwise what
    a parallel round and its epilogue compute: per-task CSE, the DAG
    lowering's sharing and the partials only change where a value is
    kept, never the operations that make it or their order; the
    reference semantics used for [Odesys.make].  Allocation-free after
    the first call.  Split or not, each derivative is evaluated in
    {!Om_expr.Eval.eval}'s order and equals it bit for bit, up to the
    sign of zero ({!Om_expr.Vm}'s contract). *)

val task_costs_static : t -> float array
