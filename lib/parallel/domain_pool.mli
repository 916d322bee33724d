(** Pre-spawned OCaml domains executing one fixed job per round.

    A pool owns [nworkers] domains for its whole lifetime — spawning a
    domain costs far more than an RHS round, so the supervisor/worker
    scheme of the paper maps onto domains spawned once and reused for
    every solver step.  Each round, worker [w] runs [job w] exactly
    once; {!round} returns when all workers have finished, with the
    workers' writes visible to the caller.

    Synchronisation is a generation counter and a completion counter
    (both [Atomic.t]) with a bounded spin before falling back to a
    mutex/condition sleep, so a steady-state round allocates nothing on
    any domain and behaves correctly both on dedicated cores (spin hits)
    and on oversubscribed machines (workers block instead of burning the
    supervisor's time slice). *)

type t

val create :
  ?barrier_deadline:float ->
  ?spawn_fail:(int -> bool) ->
  job:(int -> unit) ->
  int ->
  t
(** [create ~job n] spawns [n] worker domains.  [job w] is the fixed
    body worker [w] executes each round; it must only touch state that
    is safe to share between domains (disjoint array slots, its own
    register files).  A worker or the supervisor busy-waits 2000
    [Domain.cpu_relax] iterations before it blocks.

    [barrier_deadline] (seconds, default [0.] = disabled) arms stall
    detection: a round that outlives the deadline records a typed
    {!Om_guard.Om_error.Worker_stall} event for the one worker left
    outstanding, or a [Barrier_timeout] if several stay outstanding
    until the round completes; retrievable with {!take_stall}.
    Detection is advisory — the round still waits for every worker, so
    a slow worker's writes are never torn.

    [spawn_fail] is a fault-injection hook consulted per worker id
    before any domain is spawned ([Om_guard.Fault_plan.spawn_should_fail]
    in chaos runs).
    @raise Invalid_argument if [n < 1] or [barrier_deadline < 0].
    @raise Om_guard.Om_error.Error ([Spawn_failure]) when [spawn_fail]
    trips or [Domain.spawn] itself fails; already-spawned domains are
    joined first, so nothing leaks. *)

val round : t -> unit
(** Run one round: every worker executes its job once; returns when all
    are done.  Allocation-free in steady state (with stall detection
    disarmed).

    A job that raises does not kill its domain or hang the barrier: the
    exception is contained on the worker, the round completes, and the
    exception is re-raised here on the supervisor — typed
    {!Om_guard.Om_error.Error} faults unchanged, anything else wrapped
    as [Worker_exception] with the worker and round attached.  The pool
    stays fully operational for subsequent rounds and {!shutdown}.
    @raise Invalid_argument after {!shutdown}. *)

val take_stall : t -> Om_guard.Om_error.t option
(** The stall event recorded by the last deadline overrun, if any;
    clears it.  [None] when stall detection is disarmed or every round
    met its deadline. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  Idempotent.  The pool
    cannot be restarted afterwards. *)

val rounds : t -> int
(** Rounds started so far, which is also the number of the round in
    progress: rounds are numbered from 1, as
    {!Om_guard.Fault_plan} numbers them, and the [round] of every stall,
    timeout or worker-exception record is this number.  Between rounds,
    the rounds completed. *)

val active : t -> bool
(** [true] until {!shutdown}. *)

val compute_seconds : t -> float array
(** The pool's per-worker timing buffer: [(compute_seconds t).(w)] is
    the wall-clock seconds worker [w] spent in its job during the last
    completed round, measured on the worker with the unboxed monotonic
    clock ({!Monotonic.now}).  The buffer itself is returned (not a
    copy) so reading it every round stays allocation-free; its contents
    are only stable between rounds. *)

val round_timing : t -> float array
(** The pool's 1-slot round-timing buffer: [(round_timing t).(0)] is
    the wall-clock seconds of the last {!round}, from publishing the
    generation to the last worker's completion.  Same aliasing contract
    as {!compute_seconds}. *)
