(** Deterministic, seeded fault injection for the parallel RHS runtime.

    A plan is a small set of faults, each firing {e at most once} when
    its coordinates (round index plus task or worker id) match an
    instrumented execution point.  [Om_parallel.Par_exec] consults the
    plan inside worker jobs (task poisoning, worker delays) and at pool
    construction (spawn failures); the firing counter surfaces as
    [Runtime.report.faults_injected] so tests can assert the chaos they
    asked for actually happened.

    Queries are allocation-free scans over the fault array, so an
    instrumented round stays on the zero-allocation fast path; an
    executor built without a plan carries no instrumentation at all.
    Each query consumes at most one matching fault, so duplicate
    coordinates fire on successive queries (two [Fail_spawn] entries on
    worker 0 fail two rungs of the degradation ladder). *)

type fault =
  | Nan_task of { task : int; round : int }
      (** overwrite the output slots of [task] with NaN after it runs in
          round [round] *)
  | Inf_task of { task : int; round : int }  (** same, with +inf *)
  | Delay_worker of { worker : int; round : int; micros : int }
      (** busy-delay [worker] by [micros] after its tasks in [round] —
          trips the pool's barrier deadline when one is configured *)
  | Fail_spawn of { worker : int }
      (** make pool construction fail for this worker id, as if
          [Domain.spawn] had failed *)

type t

val make : fault list -> t

val seeded : seed:int -> ntasks:int -> nworkers:int -> max_round:int -> t
(** One recoverable fault (NaN/Inf poison or a worker delay) drawn
    deterministically from [seed]; rounds land in [1..max_round]. *)

val faults : t -> fault list

val injected : t -> int
(** How many faults have fired so far. *)

val task_poison : t -> round:int -> task:int -> float
(** The poison value ([nan] or [+inf]) if an unfired task fault matches,
    else [0.] (never a legal poison value, so test with [p <> 0.]).
    Marks the fault fired. *)

val delay_micros : t -> round:int -> worker:int -> int
(** Microseconds of injected delay for this worker/round ([0] if none).
    Marks the fault fired. *)

val spawn_should_fail : t -> worker:int -> bool
(** Whether pool construction must fail for this worker id.  Marks the
    fault fired. *)

val pp : t Fmt.t
