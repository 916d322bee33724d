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
    {!set_assignment}, a reschedule or a drop.

    There is one executor, and every round is measured: each task is
    timed with the unboxed monotonic clock ({!Monotonic.now}) into a
    pre-allocated buffer, per-worker round telemetry accumulates in
    {!stats}, and with [~semidynamic] the per-task times feed the
    paper's semi-dynamic LPT rescheduler ([Om_sched.Semidynamic],
    §3.2.3).

    A steady-state round — including a semi-dynamic one that does not
    reschedule — allocates nothing on the supervisor domain (enforced
    by [Gc.minor_words] regression tests). *)

type t

val create :
  ?barrier_deadline:float ->
  ?fault:Om_guard.Fault_plan.t ->
  ?semidynamic:int ->
  nworkers:int ->
  tasks:Om_sched.Task.t array ->
  Om_machine.Round_desc.t ->
  Om_codegen.Bytecode_backend.t ->
  t
(** Spawn the worker domains and distribute the descriptor's task
    assignment over them (each worker's tasks in ascending id order).
    [tasks] are the compiled tasks, one per per-task program; the
    descriptor's [task_flops] are the costs a reassignment starts from.
    [barrier_deadline] is forwarded to {!Domain_pool.create}.

    With [~semidynamic:period] the executor re-runs LPT on measured
    costs every [period] rounds: the rescheduler starts from the
    descriptor's costs normalised to sum 1 (which leaves the initial
    LPT assignment unchanged) and observes each round's per-task time
    shares, so estimates are scale-free.

    [fault] arms chaos instrumentation: worker jobs consult the plan
    after each task (output poisoning), after their slice (injected
    delays), and pool construction consults it per worker id (spawn
    failures).  Without a plan the job carries no instrumentation at
    all.  Plan queries mutate the plan from worker domains; a plan must
    not be shared between concurrently-running executors.
    @raise Invalid_argument if [nworkers < 1], if [tasks] or the
    assignment does not match the compiled task count, if a worker id
    is outside [0 .. nworkers-1], or on a [period < 1].
    @raise Om_guard.Om_error.Error ([Spawn_failure]) when spawning
    fails, by injection or for real. *)

val rhs_fn : t -> float -> float array -> float array -> unit
(** [rhs_fn t time y ydot]: one parallel round — publish [(time, y)] to
    the shared environment, run every task on its worker domain, run
    the epilogue on the supervisor, and write the derivatives into
    [ydot].  Drop-in replacement for
    {!Om_codegen.Bytecode_backend.rhs_fn}.

    After the round it records per-worker compute/wait into {!stats};
    under [semidynamic] it feeds normalised per-task time shares to the
    rescheduler and, when that rebuilds its schedule, installs LPT of
    the new estimates over the live workers (counted, and timed, as a
    reschedule in {!stats}).  Rounds whose task timings sum to zero
    (clock granularity) are not observed by the rescheduler.
    Allocation-free on the supervisor except in the round where a
    reschedule fires. *)

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
    by LPT on the current cost estimates — the reassignment a
    semi-dynamic reschedule also makes, so a dropped worker gets no
    task back.  The dead worker keeps its domain (it joins every
    barrier with an empty slice, so {!shutdown} is unaffected);
    trajectories stay bit-identical across the reassignment because
    output slots are disjoint and the epilogue runs on the supervisor.
    @raise Invalid_argument on an unknown, already-dropped, or last
    remaining worker. *)

val stats : t -> Round_stats.t
(** Telemetry of every round run so far. *)

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
  ?barrier_deadline:float ->
  ?fault:Om_guard.Fault_plan.t ->
  ?semidynamic:int ->
  nworkers:int ->
  tasks:Om_sched.Task.t array ->
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
