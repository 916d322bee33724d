(** Real multicore execution of one RHS round on OCaml domains.

    The measured counterpart of {!Om_machine.Supervisor.round_desc}:
    the same inputs — a task assignment from [Om_sched.Lpt] packaged in
    an {!Om_machine.Round_desc.t} and the per-task register-VM programs
    of an {!Om_codegen.Bytecode_backend.t} — but every round actually
    runs the tasks on [nworkers] pre-spawned domains sharing the state
    environment and output vector.

    Determinism: tasks write disjoint output slots, partials and
    task-private environment temporaries, and the epilogue (the split
    assignments' residuals) runs on the supervisor domain after the
    round barrier, so the derivative vector — and therefore any
    trajectory integrated through {!rhs_fn} — is bit-identical to
    sequential evaluation for every worker count and for every task
    assignment, including assignments swapped mid-run by
    {!set_assignment}.

    Every task is timed with the unboxed monotonic clock
    ({!Monotonic.now}) into a pre-allocated buffer; the measured
    executor ({!create_measured}) feeds those per-task times into the
    paper's semi-dynamic LPT rescheduler ([Om_sched.Semidynamic]) and
    accumulates per-worker round telemetry ({!Round_stats}).

    A steady-state round — including a measured, semi-dynamic one that
    does not reschedule — allocates nothing on the supervisor domain
    (enforced by [Gc.minor_words] regression tests). *)

type t

val create :
  ?spin_budget:int ->
  ?barrier_deadline:float ->
  ?fault:Om_guard.Fault_plan.t ->
  nworkers:int ->
  Om_machine.Round_desc.t ->
  Om_codegen.Bytecode_backend.t ->
  t
(** Spawn the worker domains and distribute the descriptor's task
    assignment over them (each worker's tasks in ascending id order).
    [spin_budget] and [barrier_deadline] are forwarded to
    {!Domain_pool.create}.

    [fault] arms chaos instrumentation: worker jobs consult the plan
    after each task (output poisoning), after their slice (injected
    delays), and pool construction consults it per worker id (spawn
    failures).  Without a plan the job carries no instrumentation at
    all.  Plan queries mutate the plan from worker domains; a plan must
    not be shared between concurrently-running executors.
    @raise Invalid_argument if [nworkers < 1], if the assignment length
    does not match the compiled task count, or if a worker id is outside
    [0 .. nworkers-1].
    @raise Om_guard.Om_error.Error ([Spawn_failure]) when spawning
    fails, by injection or for real. *)

val rhs_fn : t -> float -> float array -> float array -> unit
(** [rhs_fn t time y ydot]: one parallel round — publish [(time, y)] to
    the shared environment, run every task on its worker domain, run
    the epilogue on the supervisor, and write the derivatives into
    [ydot].  Drop-in replacement for
    {!Om_codegen.Bytecode_backend.rhs_fn}. *)

val set_assignment : t -> int array -> unit
(** Replace the live task assignment without respawning domains: the
    per-worker slices are rebuilt and swapped into the array the worker
    jobs read at the start of each round, so the new schedule takes
    effect at the next {!rhs_fn} call.  Supervisor-only; must not run
    concurrently with a round.
    @raise Invalid_argument on a wrong-length assignment or a worker id
    outside [0 .. nworkers-1]. *)

val drop_worker : t -> int -> unit
(** One step down the degradation ladder: remove [worker] from the live
    set and redistribute {e all} tasks over the remaining live workers
    by LPT on the static costs.  The dead worker keeps its domain (it
    joins every barrier with an empty slice, so {!shutdown} is
    unaffected); trajectories stay bit-identical across the
    reassignment because output slots are disjoint and the epilogue
    runs on the supervisor.
    @raise Invalid_argument on an unknown, already-dropped, or last
    remaining worker. *)

val take_stall : t -> Om_guard.Om_error.t option
(** {!Domain_pool.take_stall} of the underlying pool: the stall event
    recorded by the last barrier-deadline overrun, if any (cleared). *)

val live_workers : t -> int
(** Workers still in the live set ([nworkers] minus drops). *)

val faults_injected : t -> int
(** Faults fired so far by the executor's plan ([0] without a plan). *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent. *)

val with_executor :
  ?spin_budget:int ->
  ?barrier_deadline:float ->
  ?fault:Om_guard.Fault_plan.t ->
  nworkers:int ->
  Om_machine.Round_desc.t ->
  Om_codegen.Bytecode_backend.t ->
  (t -> 'a) ->
  'a
(** [create], run the callback, and {!shutdown} even on exceptions. *)

val rounds : t -> int
(** Rounds executed so far ({!Domain_pool.rounds}: the fault plan's
    round [k] is the [k]th round, and a stall in it is reported as round
    [k]). *)

val worker_tasks : t -> int array array
(** Task ids per worker, ascending — the materialised live assignment
    (mutated in place by {!set_assignment}). *)

(** {1 Measured execution}

    Telemetry plus the paper's §3.2.3 semi-dynamic loop on real
    hardware: every round is timed, per-task times are normalised into
    shares of the round and fed to [Om_sched.Semidynamic.observe], and
    when the rescheduler rebuilds its LPT schedule the new assignment is
    swapped into the live executor between rounds. *)

type measured = {
  exec : t;
  stats : Round_stats.t;
  semidyn : Om_sched.Semidynamic.t option;
      (** [None]: telemetry only (static schedule) *)
  shares : float array;  (** pre-allocated normalised-share buffer *)
  scratch : float array;  (** pre-allocated summation slot *)
}

val create_measured :
  ?spin_budget:int ->
  ?barrier_deadline:float ->
  ?fault:Om_guard.Fault_plan.t ->
  ?semidynamic:int ->
  nworkers:int ->
  tasks:Om_sched.Task.t array ->
  Om_machine.Round_desc.t ->
  Om_codegen.Bytecode_backend.t ->
  measured
(** {!create} plus telemetry.  With [~semidynamic:period] the executor
    re-runs LPT on measured costs every [period] rounds: the rescheduler
    starts from the descriptor's static costs normalised to sum 1 (which
    leaves the initial LPT assignment unchanged) and observes each
    round's per-task time shares, so estimates are scale-free.
    @raise Invalid_argument as {!create}, or if [tasks] does not match
    the compiled task count when [semidynamic] is given. *)

val measured_rhs_fn : measured -> float -> float array -> float array -> unit
(** {!rhs_fn} plus, after the round: record per-worker compute/wait into
    [stats]; under [semidynamic], feed normalised per-task time shares
    to the rescheduler and swap a rebuilt schedule into the executor
    (counted, and timed, as a reschedule in [stats]).  Rounds whose
    timings sum to zero (clock granularity) are not observed.
    Allocation-free on the supervisor except in the round where a
    reschedule fires. *)

val shutdown_measured : measured -> unit

val with_measured :
  ?spin_budget:int ->
  ?barrier_deadline:float ->
  ?fault:Om_guard.Fault_plan.t ->
  ?semidynamic:int ->
  nworkers:int ->
  tasks:Om_sched.Task.t array ->
  Om_machine.Round_desc.t ->
  Om_codegen.Bytecode_backend.t ->
  (measured -> 'a) ->
  'a
(** [create_measured], run the callback, and shut down even on
    exceptions. *)

val executor : measured -> t
val stats : measured -> Round_stats.t
