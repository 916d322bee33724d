(** Cooperative cancellation tokens with wall-clock deadlines.

    A token is shared between the thread that owns a running integration
    and any thread that wants to stop it: the owner polls {!check} at a
    natural safe point (the runtime polls once per RHS round), the other
    side flips the flag with {!cancel} — or nobody does, and an armed
    deadline expires on its own.  Both outcomes surface as the
    non-retryable {!Om_error.t} constructors ({!Om_error.Cancelled},
    {!Om_error.Deadline_exceeded}), so the solvers abort immediately
    instead of entering their backoff ladder
    ({!Om_error.retryable}), and a server can map the fault to a
    per-job status record.

    Tokens are safe to share across domains: the cancellation flag is an
    [Atomic.t], and the deadline is immutable after {!create}. *)

type t

val create : ?deadline_s:float -> job:string -> unit -> t
(** A token for [job] (a free-form label quoted in the fault).
    [deadline_s] arms a wall-clock deadline ([Unix.gettimeofday]) that
    many seconds after the call ([0.], the default, leaves it
    disarmed).
    @raise Invalid_argument if [deadline_s < 0.]. *)

val cancel : ?reason:string -> t -> unit
(** Request cancellation (default [reason] is ["cancelled by client"]).
    Idempotent; the first reason wins.  The running side observes it at
    its next {!check}. *)

val check : t -> unit
(** The polling point: returns unless the token was cancelled or its
    deadline expired.
    @raise Om_error.Error ([Cancelled]) after {!cancel};
    @raise Om_error.Error ([Deadline_exceeded]) past the deadline. *)
