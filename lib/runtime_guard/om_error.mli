(** Structured runtime-fault taxonomy for the parallel RHS runtime.

    The supervisor/worker scheme calls the generated RHS at every solver
    step; on real machines those rounds fail in structured ways — a task
    produces a NaN, a worker stalls past the round barrier, a domain
    fails to spawn, a solver step blows its retry budget.  Ad-hoc
    [Failure]/[Invalid_argument] strings cannot be matched on by the
    recovery policies (step-size backoff in the solvers, the degradation
    ladder in [Om_parallel.Par_exec]), so every recoverable fault is one
    constructor of {!t} carried by the single exception {!Error}.

    [Invalid_argument] remains in use across the codebase for
    programmer-contract violations (wrong array lengths, out-of-range
    ids); {!t} covers the faults that occur on a {e correct} program run
    on imperfect hardware or with injected chaos
    ([Om_guard.Fault_plan]). *)

type t =
  | Nonfinite_output of {
      slot : int;  (** state slot of the offending derivative *)
      equation : string;  (** flattened equation name, e.g. [der(p.theta)] *)
      value : float;  (** the non-finite value (nan or ±inf) *)
      time : float;  (** solver time of the failing RHS evaluation *)
    }
      (** Raised by {!Om_guard.Finite_guard} when a post-round scan finds
          a non-finite derivative.  Solvers catch this and retry with
          step-size backoff. *)
  | Worker_stall of { worker : int; round : int; waited_s : float }
      (** A worker failed to reach the round barrier before the
          configured deadline.  Recorded as the cause of a degradation
          event when the runtime drops the worker. *)
  | Spawn_failure of { worker : int; nworkers : int; reason : string }
      (** [Domain.spawn] failed (or was failed by injection) while
          building a pool.  The runtime degrades to fewer workers. *)
  | Barrier_timeout of { round : int; missing : int; deadline_s : float }
      (** A round barrier expired with [missing] workers outstanding and
          no single worker attributable. *)
  | Worker_exception of { worker : int; round : int; detail : string }
      (** A worker's job raised; the exception was contained on the
          worker (the domain keeps serving rounds, so the pool still
          joins cleanly) and re-raised on the supervisor. *)
  | Newton_failure of { time : float; iterations : int }
      (** The modified-Newton corrector of an implicit stage failed to
          converge; stiff solvers catch this and shrink the step. *)
  | Step_failure of {
      solver : string;
      time : float;
      step : float;
      retries : int;
      reason : string;  (** rendered root cause, names the equation when
                            the fault was a guarded non-finite output *)
    }
      (** A solver exhausted its retry budget (or its global step
          budget).  Terminal: integration cannot proceed. *)
  | Cancelled of { job : string; reason : string }
      (** The job owning this integration was cancelled from outside
          (an explicit client cancellation through {!Cancel.cancel}).
          Terminal and non-retryable: the solvers re-raise it
          immediately instead of entering the backoff ladder. *)
  | Deadline_exceeded of { job : string; deadline_s : float; elapsed_s : float }
      (** The job's wall-clock deadline expired while the integration was
          running ({!Cancel.check}).  Terminal and non-retryable, like
          {!Cancelled}. *)

exception Error of t

val error : t -> 'a
(** [error e] raises [Error e]. *)

val retryable : t -> bool
(** Whether the solvers' same-step-retry/backoff ladder may answer this
    fault ([true] for runtime faults such as {!Nonfinite_output}), or
    the fault must abort the integration at once ([false] for
    {!Cancelled} and {!Deadline_exceeded} — retrying cannot unexpire a
    deadline). *)

val job_retryable : t -> bool
(** Job-level recovery classification, one level above {!retryable}:
    when an integration has already failed with this fault, is
    re-running the {e whole job} from scratch plausible?  [true] for
    transient infrastructure faults ({!Worker_stall}, {!Spawn_failure},
    {!Barrier_timeout}, {!Worker_exception}) and for {!Step_failure}
    (the step ladder's summary of an injected or environmental fault
    burst); [false] for deterministic verdicts about the model
    ({!Nonfinite_output}, {!Newton_failure}) and for the terminal
    envelope faults ({!Cancelled}, {!Deadline_exceeded}).  The serve
    layer re-enqueues [job_retryable] failures with exponential backoff
    under a bounded per-job budget. *)

val to_string : t -> string

(** One step down the degradation ladder
    [Real_domains n -> Real_domains (n-1) -> sequential]: which worker
    was dropped, when, why, and how many workers remain ([0] means the
    supervisor now evaluates the RHS itself). *)
type degradation = {
  at_round : int;  (** pool round index when the ladder stepped (0 for
                       spawn-time degradation) *)
  worker : int;
      (** the worker removed from the live set, or [-1] for an advisory
          record that dropped none: the last live worker stalled, or the
          cause names no worker *)
  remaining : int;  (** live workers after the step *)
  cause : t;
}

val pp_degradation : degradation Fmt.t
