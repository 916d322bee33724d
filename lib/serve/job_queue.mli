(** Thread-safe bounded priority queue with per-tenant admission
    control — the server's submission queue.

    Producers {!submit} without blocking: an over-capacity or over-quota
    submission is {e rejected} instead of applying back-pressure, which
    is the serve layer's overload story (the caller turns each shed
    path into its own typed status record).  Consumers {!pop}, blocking
    while nothing is eligible and the queue is open.

    Ordering: highest {!submit} priority first; within a priority,
    earlier absolute [deadline] first (no deadline = infinity); FIFO
    within that (a submission sequence number breaks ties), so
    same-priority deadline-free jobs complete in submission order — the
    ordered-status guarantee the cram tests assert.

    The shed paths are distinguishable so each gets its own status:
    - [`Rejected_full] — the queue holds [capacity] items (global
      overload shedding, every tenant affected);
    - [`Rejected_quota] — this tenant already has
      [max_queued_per_tenant] items queued (per-tenant fairness; other
      tenants are unaffected).

    [max_running_per_tenant] caps concurrent {e execution} per tenant:
    {!pop} skips entries whose tenant is at the cap (the best eligible
    entry pops instead, so one tenant's burst cannot monopolise the
    executor domains) and unblocks when {!finished} releases a slot.

    Implementation: a binary max-heap under one mutex with a condition
    variable for sleeping consumers; O(log n) without quotas, one O(n)
    scan per pop when the root's tenant is saturated. *)

type 'a t

val create :
  ?max_queued_per_tenant:int ->
  ?max_running_per_tenant:int ->
  capacity:int ->
  unit ->
  'a t
(** [0] (the default) disables the respective tenant quota.
    @raise Invalid_argument on [capacity < 1] or a negative quota. *)

val submit :
  ?tenant:string ->
  ?deadline:float ->
  ?force:bool ->
  'a t ->
  priority:int ->
  'a ->
  [ `Ok | `Rejected_full | `Rejected_quota | `Closed ]
(** Enqueue, never blocking.  [deadline] is an absolute wall-clock time
    (epoch seconds) used for ordering within a priority; default
    infinity.  [force] bypasses the capacity and quota checks (never
    the closed check) — the retry path uses it so a re-enqueued job,
    which was already admitted once, cannot be shed on re-entry. *)

val pop : 'a t -> 'a option
(** Dequeue the best eligible item, blocking while none is available
    and the queue is open; [None] once the queue is closed {e and}
    drained — the consumer's termination signal.  Counts the entry's
    tenant as running: the caller must call {!finished} when the job
    leaves execution (terminal status or retry re-enqueue). *)

val finished : 'a t -> tenant:string -> unit
(** Release one running slot for [tenant] and wake blocked consumers. *)

val close : 'a t -> unit
(** Stop accepting submissions and wake every blocked consumer.  Items
    already queued are still delivered.  Idempotent. *)

val closed : 'a t -> bool
val length : 'a t -> int

val queued_for : 'a t -> tenant:string -> int
(** Currently queued (not yet popped) items for [tenant]. *)

val running_for : 'a t -> tenant:string -> int
(** Popped-but-not-{!finished} items for [tenant]. *)
