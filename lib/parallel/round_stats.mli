(** Per-worker round telemetry for the real domain executor.

    Accumulates, over the lifetime of a {!Par_exec} executor, what the
    machine simulator reports analytically: per-worker compute versus
    barrier-wait time, total round wall time, reschedule count and the
    supervisor time spent rebuilding schedules.  {!Runtime.report}
    surfaces these instead of the placeholder values real execution
    used to fake.

    {!observe_round} is allocation-free: scalar accumulators live in a
    pre-allocated float array (a mutable [float] record field would box
    on every update without flambda), and the round duration arrives
    through the pool's 1-slot timing buffer rather than as a fresh
    [float] argument (which would box at the call boundary). *)

type t

val create : nworkers:int -> t
(** @raise Invalid_argument if [nworkers < 1]. *)

val observe_round : t -> timing:float array -> compute:float array -> unit
(** Record one completed round.  [timing.(0)] is the round's wall-clock
    seconds ({!Domain_pool.round_timing}); [compute.(w)] worker [w]'s
    job seconds ({!Domain_pool.compute_seconds}).  Allocation-free.
    @raise Invalid_argument if [compute] is not [nworkers] long. *)

val note_reschedule : t -> seconds:float -> unit
(** Record one schedule rebuild and the supervisor seconds it took. *)

val rounds : t -> int

val round_seconds : t -> float
(** Total wall-clock seconds across all observed rounds. *)

val worker_compute : t -> float array
(** Per-worker total compute seconds (a copy). *)

val worker_wait : t -> float array
(** Per-worker total seconds between job end and round end — time spent
    waiting at the barrier (a copy). *)

val barrier_seconds : t -> float
(** Total round time not covered by the slowest worker's compute: the
    supervisor-side synchronisation overhead. *)

val utilization : t -> float
(** Mean fraction of round time the workers spent computing:
    [sum compute / (nworkers * round_seconds)]; [1.] before the first
    round. *)

val reschedules : t -> int

val reschedule_seconds : t -> float
(** Supervisor wall-clock seconds spent rebuilding LPT schedules. *)

