(** Compiled-model cache: the serve layer's compile-once story.

    Jobs are keyed by the content hash of their model source
    ({!Om_codegen.Pipeline.source_key}); a miss builds the model's front
    ({!Om_codegen.Pipeline.model_of_source}: flatten, typecheck, read
    sets, sparsity) and a hit returns the cached
    {!type:Om_codegen.Pipeline.model}, skipping all of it — the property the
    serve tests assert with {!Om_codegen.Pipeline.compile_count}.  The
    model's later stages are built by the first job that needs them and
    then kept with the entry: the sequential program by the first job of
    any mode, the per-task back end only by the first [Simulated] or
    multi-domain job ({!Om_codegen.Pipeline.back_count}), so a server
    that runs only sequential jobs never builds per-task code.  Tenancy
    is deliberately {e not} part of the key: two tenants submitting
    byte-identical sources share one compiled model (compilation is
    pure), while per-job state (initial values, trajectories, solver
    scratch) never enters the cache, so no simulation data can leak
    across tenants.

    Eviction is LRU over a fixed capacity.  [capacity = 0] disables the
    cache entirely — every lookup compiles and nothing is stored — which
    is how the serve bench measures its cold series.

    {b Concurrency.}  The internal mutex guards map operations only;
    compilation runs with no lock held.  A miss parks concurrent
    requests for the {e same} source on a per-key in-flight latch (each
    source still compiles exactly once; the waiters resume on the hit
    path), while lookups of {e other} sources — cached or not — proceed
    untouched: a slow compile never stalls a hit.  The returned model is
    shared between every job that hits the same entry; it is immutable,
    its lazy stages are built once whichever executors ask at the same
    time, and [Objectmath.Runtime.execute_model] runs each job on its
    own scratch, so one cached model serves many executors at once
    without a lock. *)

type entry = {
  key : string;  (** {!Om_codegen.Pipeline.source_key} of the source *)
  compiled : Om_codegen.Pipeline.model;
      (** shared, read-only; built stages stay with it *)
}

type stats = {
  compiles : int;  (** cache-triggered pipeline compilations *)
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** current residency *)
}

type t

val create :
  ?on_compile:(string -> unit) ->
  capacity:int ->
  unit ->
  t
(** [capacity] is the maximum number of resident compiled models;
    [0] disables storage (always compile, never cache).
    [on_compile] is an observability/test hook invoked with the source
    at the start of every actual compilation — off every lock, in the
    compiling thread, at most once per miss (latch waiters never invoke
    it).  The concurrency tests use it to hold a compile open and
    witness that hits keep flowing.
    @raise Invalid_argument if [capacity < 0]. *)

val lookup : t -> string -> [ `Hit of entry | `Miss of entry ]
(** [lookup t source] returns the compiled form of [source], compiling
    it on a miss.  Concurrent requests for the same new source compile
    once (the rest wait on the in-flight latch and return [`Hit]);
    requests for other sources are never blocked by a compile.
    Front-end failures propagate to the caller and leave the cache
    unchanged.
    @raise Om_lang.Lexer.Error, [Om_lang.Parser.Error],
    [Om_lang.Flatten.Error] or [Invalid_argument] on ill-formed
    sources. *)

val stats : t -> stats

val resident : t -> string list
(** Keys currently cached, most recently used first (test hook). *)
