(** Parallel lane dispatch for batched ensemble evaluation.

    Wraps a {!Om_codegen.Batch_backend.t} as an {!Om_ode.Ensemble.brhs}
    that splits the requested lane range into contiguous slices across a
    pre-spawned {!Om_parallel.Domain_pool}.  Because the batch backend's
    mutable state is lane-indexed, every worker drives the {e same}
    backend instance over its own slice — no cloning, no merging — and
    per-lane arithmetic is independent of the slicing, so the parallel
    evaluation is Int64-bitwise identical to the sequential one. *)

type t

val create : ?domains:int -> Om_codegen.Batch_backend.t -> t
(** [create ~domains backend] — with [domains = 1] (the default) the
    right-hand side runs on the calling domain and no pool is spawned.
    @raise Invalid_argument if [domains < 1].
    @raise Om_guard.Om_error.Error ([Spawn_failure]) if a worker domain
    cannot be spawned. *)

val brhs :
  t ->
  times:float array ->
  y:float array array ->
  ydot:float array array ->
  lo:int ->
  hi:int ->
  unit
(** Evaluate lanes [lo..hi-1]; matches {!Om_ode.Ensemble.brhs}. *)

val shutdown : t -> unit
(** Join the worker domains, if any.  Idempotent. *)
