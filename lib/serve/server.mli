(** The multi-tenant simulation service: a job queue in front of the
    runtime, a compiled-model cache, per-job cancellation/deadlines,
    durability via a write-ahead {!Journal}, per-tenant admission
    control, bounded retry/backoff, and streamed NDJSON results.

    A server owns a bounded priority {!Job_queue} (with per-tenant
    quotas), a {!Model_cache} shared by every job, an optional
    {!Result_cache} of finished trajectories, [executors] worker
    domains that pop jobs and run them through
    {!Om_codegen.Pipeline} + {!Objectmath.Runtime.execute}, and one
    retry-nursery domain holding failed-but-retryable jobs through
    their backoff.
    Every externally visible event is one JSON record handed to the
    [emit] callback (one line of NDJSON in [omc serve]), or to the
    job's own [sink] when the submission carried one:

    - [{"type":"chunk","job":id,"seq":k,"rows":[[t,y0,...],...]}] —
      streamed trajectory rows, for jobs with [chunk > 0];
    - [{"type":"retry","job":id,"tenant":t,"attempt":k,"delay_s":d,
      "error":e}] — a job-retryable failure entering backoff (not
      terminal: the job will run again);
    - [{"type":"status","job":id,"tenant":t,"status":s,...}] — exactly
      one terminal record per accepted job.  Jobs that ran more than
      once carry [attempts]:k;
    - [{"type":"summary",...}] — once, from the first {!drain}.

    Status values and their triggers:
    - ["ok"] — integration completed (possibly degraded; the
      [degradations] count says how many ladder rungs were taken).  A
      job answered from the result cache additionally carries
      ["result_cache":"hit"];
    - ["solver_failure"] — the solver exhausted its retry/step budget
      ({!Om_guard.Om_error.Error}) and the job either has no retry
      budget left or the fault is not
      {!Om_guard.Om_error.job_retryable}.  The server keeps serving
      subsequent jobs;
    - ["cancelled"] / ["deadline_exceeded"] — the job's
      {!Om_guard.Cancel} token fired, while queued or mid-run;
    - ["model_error"] — the front end rejected the source
      (lex/parse/flatten/typecheck);
    - ["rejected_full"] — the submission queue was at capacity (global
      overload shedding);
    - ["rejected_quota"] — the tenant was at its queued-job quota
      (per-tenant fairness; other tenants unaffected);
    - ["rejected_deadline"] — the job's deadline is below the model's
      estimated run time (EWMA of past runs), so running it could only
      produce a late ["deadline_exceeded"];
    - ["invalid"] — the NDJSON record was undecodable, or reused the id
      of a job still in flight (accepting it would orphan one job's
      cancel token).

    {b Durability.}  With a {!Journal}, every accepted job's spec is
    journaled {e before} it can run, and every transition
    (running/retrying/requeued/terminal) is appended as it happens.
    Executors wait for a job's accept record to be fsynced (group
    commit) before its first side effect, so after a crash
    {!Journal.replay} + {!recover} re-enqueues exactly the accepted
    jobs with no terminal record — once each — and re-running them is
    bitwise-identical for deterministic jobs.

    {b Concurrency model.}  Executors share the compiled-model cache
    (immutable artifacts, map operations under the cache's own mutex,
    compilation off-lock), the result cache (same discipline), the job
    queue, and the journal (single-line appends under its own mutex).
    Each job executes an {!Om_codegen.Pipeline.clone_scratch} of the
    cached artifact, so any number of executors can run the {e same}
    hot model simultaneously.  The remaining locks, in acquisition
    order (none is ever held while another is taken, except
    state_mutex inside an emit-free region): queue mutex (pop/submit),
    cache mutexes (map ops), journal mutex (appends), [state_mutex]
    (tokens/counters/EWMA/inflight), retry-nursery mutex, [emit_mutex]
    (default emit only; a per-job [sink] serialises itself).

    With one executor (the default), status records are emitted in
    completion order = priority, then earliest deadline, then FIFO —
    the ordering the CI smoke test asserts.  With several, records
    never interleave (emit and each sink are serialised) but completion
    order depends on job durations. *)

type config = {
  queue_capacity : int;  (** bound on queued jobs; default 64 *)
  executors : int;  (** worker domains popping jobs; default 1 *)
  cache_capacity : int;
      (** compiled-model cache residency; [0] disables caching.
          Default 32. *)
  timings : bool;
      (** include [queue_s]/[run_s]/[total_s] in status records
          (default [true]; [omc serve --no-timings] turns it off so
          cram output is deterministic) *)
  resolve : string -> string option;
      (** builtin-model resolution for job ["model"] fields (default:
          none resolve) *)
  max_queued_per_tenant : int;
      (** per-tenant bound on queued jobs; [0] (default) = no quota.
          Over-quota submissions shed as ["rejected_quota"]. *)
  max_running_per_tenant : int;
      (** per-tenant bound on concurrently executing jobs; [0]
          (default) = no quota.  Enforced at pop: a saturated tenant's
          jobs wait while other tenants' jobs overtake them. *)
  default_retries : int;
      (** retry budget given to decoded jobs that do not set
          ["retries"] themselves; default 0 *)
  retry_backoff_s : float;
      (** base backoff before re-running a retryable failure; attempt
          [k] waits [retry_backoff_s * 2^(k-1)].  Default 0.05. *)
  deadline_margin : float;
      (** deadline shedding factor: shed a job at admission when
          [ewma_run_time * deadline_margin > deadline_s].  [0.]
          (default) disables shedding; [1.] sheds jobs whose deadline
          is below the model's smoothed run time. *)
  result_cache_capacity : int;
      (** finished-trajectory cache residency; [0] (default) disables
          result caching entirely (no new output fields) *)
}

val default_config : config

type stats = {
  submitted : int;  (** accepted into the queue (including recovered) *)
  completed : int;  (** terminal status records for accepted jobs *)
  ok : int;
  failed : int;  (** completed - ok *)
  rejected_full : int;  (** shed: queue at capacity *)
  rejected_quota : int;  (** shed: tenant at queued quota *)
  rejected_deadline : int;  (** shed: deadline below estimated run time *)
  retried : int;  (** retry transitions (attempts beyond each first) *)
  recovered : int;  (** jobs re-enqueued by {!recover} *)
}

type t

val create :
  ?config:config ->
  ?journal:Journal.t ->
  emit:(Json.t -> unit) ->
  unit ->
  t
(** Start a server: spawns the executor domains and the retry nursery
    immediately.  [emit] receives every output record not routed to a
    per-job sink; it is called under a lock, from executor domains, and
    must not call back into the server.  Pass [journal] to journal
    every accepted job and its transitions; the server owns the journal
    from here on and closes it in {!drain}. *)

val submit :
  ?sink:(Json.t -> unit) ->
  t ->
  Job.spec ->
  [ `Ok of string | `Duplicate | `Rejected of string | `Closed ]
(** Enqueue a job.  An empty [spec.id] is replaced with a fresh
    ["job-N"]; the returned id is the one status records will carry.
    The job's deadline clock starts now — time spent queued (and in
    retry backoff) counts.  When [sink] is given, every record this job
    produces goes to it instead of the server-wide [emit]; the sink is
    called from executor domains and must do its own serialisation.
    [`Duplicate] means a job with this id is already in flight — the
    spec is not queued and an ["invalid"] status record is emitted.
    [`Rejected status] carries the shed status (["rejected_full"],
    ["rejected_quota"] or ["rejected_deadline"]); the matching status
    record has already been emitted. *)

val recover : t -> Journal.replay -> int
(** Re-enqueue the pending jobs of a journal replay — the jobs a
    previous process accepted but never finished — returning how many
    were re-enqueued.  Each is journaled as a ["requeued"] transition
    (never a second accept), bypasses admission control (it was already
    admitted once), and restarts its deadline clock at recovery time.
    Call once, right after {!create}, before accepting new work. *)

val cancel : ?reason:string -> t -> job:string -> unit
(** Request cancellation of a queued, running, or backoff-pending job
    by id.  Unknown or already-completed ids are ignored. *)

val handle_line :
  ?sink:(Json.t -> unit) -> t -> string -> [ `Queued of string | `Replied | `Quiet ]
(** Feed one NDJSON input line: blank lines are ignored; a
    [{"type":"cancel","job":id}] control record calls {!cancel};
    anything else is decoded as a {!Job.spec} (with the server's
    [default_retries]) and submitted with [sink].  Parse or decode
    failures emit an ["invalid"] status record; shed submissions emit
    their ["rejected_*"] record — this function never raises.  The
    result tells a connection loop what the line turned into:
    [`Queued id] — a job was accepted, expect an asynchronous terminal
    status for [id] later; [`Replied] — the line was answered
    synchronously; [`Quiet] — nothing was or will be emitted for this
    line. *)

val stats : t -> stats
val cache : t -> Model_cache.t

val cache_summary : t -> Json.t
(** The ["cache"] object of every summary record: the compiled-model
    cache's [hits], [misses], [compiles], [evictions] and [entries]. *)

val result_cache_stats : t -> int * int * int
(** [(hits, misses, entries)] of the result cache; zeros when result
    caching is disabled. *)

val drain : t -> Json.t
(** Wait for every accepted job (including jobs in retry backoff) to
    reach its terminal status, close the queue, join the executor and
    nursery domains, close the journal if any, then emit and return the
    summary record ([jobs]/[ok]/[failed]/[rejected] counts — plus
    [retried]/[recovered] when nonzero and result-cache statistics when
    enabled — and compiled-model cache statistics).  Idempotent:
    subsequent calls (from any thread) return the same summary record
    without emitting it again. *)
