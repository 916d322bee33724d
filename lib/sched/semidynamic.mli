(** Semi-dynamic LPT rescheduling (paper §3.2.3).

    Conditional expressions inside right-hand sides make task times vary
    during simulation, so a static schedule degrades.  The paper feeds "the
    elapsed times for right-hand side evaluations during the previous
    iteration step" back into LPT and re-schedules regularly, at a measured
    overhead below 1% of execution time.

    This module keeps an exponentially smoothed estimate of each task's
    execution time and recomputes the LPT schedule every [period]
    iterations.  The cost charged for each rescheduling is modelled as
    [c * n log2 n] flop units on the supervisor (sorting dominates), which
    the machine simulator converts to time. *)

type t

val create :
  ?period:int ->
  ?smoothing:float ->
  ?costs:float array ->
  Task.t array ->
  nprocs:int ->
  t
(** [period] (default 10) iterations between reschedules; [smoothing]
    (default 0.5) is the weight of the newest measurement.  [costs]
    overrides the initial cost estimates (and the initial schedule) —
    the real executor passes normalised static costs here so that
    subsequently observed per-round time {e shares} live on the same
    scale as the estimates.  The array is copied.
    @raise Invalid_argument if [period < 1], [smoothing] is outside
    (0, 1], or [costs] does not match the task count. *)

val current : t -> Lpt.schedule

val estimates : t -> float array
(** The current smoothed cost estimates (a copy). *)

val observe : t -> float array -> unit
(** Record measured per-task costs for the iteration just executed;
    reschedules when the period has elapsed.  Units are the caller's
    choice (flops, seconds, or normalised shares) — LPT only depends on
    relative cost.  Allocation-free unless this observation triggers a
    reschedule.
    @raise Invalid_argument on a wrong-length measurement vector. *)

val reschedule_count : t -> int

val overhead_cost_per_reschedule : Task.t array -> float
