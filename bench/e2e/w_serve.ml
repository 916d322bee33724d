(* The two serve workloads: one in-process [Om_serve.Server] fed by a
   single load-generating thread, in two phases.

   - Closed phase (the first 20% of the window): a fixed number of jobs
     in flight, each completion answered by the next submission.  Its
     completions per second are the saturation throughput
     ([loadgen.closed_per_s]).
   - Open phase (the rest): seeded Poisson arrivals at a fixed rate,
     submitted on schedule whatever the server's state.  Each job's
     latency runs from its due time to its terminal status, so a stall
     also charges the jobs queued behind it.  The median scaled latency
     is the op time.

   serve-stiff: two executors, no journal, warm cache; LSODA on one
   seeded 2D-bearing source.  Integration is the whole cost.
   serve-churn: one executor, journal on, cache of 16 over 256 seeded
   bearing models drawn u^3-skewed; 20-step RK4 runs.  Compiles on
   misses are the cost.

   Checks: every job ends [ok], and 8 seeded jobs' final states are
   bitwise equal to a direct [Runtime.execute] of the same spec. *)

open Harness
module Json = Om_serve.Json
module Server = Om_serve.Server
module Job = Om_serve.Job

type kind = Stiff | Churn

(* Open-loop rates, jobs per second, frozen at a little under 30% of the
   closed-phase throughput at the baseline (≈240 and ≈110 jobs/s).
   Nearer saturation, queueing magnifies every slowdown of the host
   (README.md, "Estimators"). *)
let open_rate = function Stiff -> 70. | Churn -> 30.

let executors = function Stiff -> 2 | Churn -> 1
let in_flight = 4
let churn_tend = 1e-4
let churn_h = churn_tend /. 20.

(* The open phase runs in segments of [segment_s] seconds, with
   [segment_kernels] calibration kernels timed between two segments,
   while the server is idle.  Timed beside busy executors, the kernel
   would measure contention with the program rather than the host; timed
   only before and after the whole phase, it would miss the host's
   changes of speed within it. *)
let segment_s = 0.5
let segment_kernels = 3

(* The fields of a terminal status record the benchmark uses. *)
type status = {
  ok : bool;
  text : string;  (** the record itself when the job did not end [ok] *)
  queue_s : float;
  run_s : float;
  cache_hit : bool;
  steps : float;
  rhs_calls : float;
  final : float array;
}

type slot = {
  spec : Job.spec;
  mutable submitted : float;
  mutable due : float;
  mutable done_at : float;  (** [nan] until the terminal status arrives *)
  mutable status : status option;
  mutable kernel_s : float;  (** calibration kernel time around an open-phase job *)
}

let slot spec =
  { spec; submitted = nan; due = nan; done_at = nan; status = None; kernel_s = nan }

let parse record =
  let num field =
    Option.value ~default:nan (Option.bind (Json.member record field) Json.to_float)
  in
  let ok = Json.member record "status" = Some (Json.Str "ok") in
  {
    ok;
    text = (if ok then "" else Json.to_string record);
    queue_s = num "queue_s";
    run_s = num "run_s";
    cache_hit = Json.member record "cache" = Some (Json.Str "hit");
    steps = num "steps";
    rhs_calls = num "rhs_calls";
    final =
      (match Option.bind (Json.member record "final") Json.to_list with
      | Some xs -> Array.of_list (List.map (fun x -> Option.value ~default:nan (Json.to_float x)) xs)
      | None -> [||]);
  }

(* Job sources.  Churn's are 256 distinct bearings of one shape — 3
   rollers, raceway profile of order 5 — with seeded loads.  A compile
   costs about 8 ms, ten times a 20-step run.  One shape keeps every
   miss at one cost, so the median latency does not follow the share of
   hits, which varies from run to run by ±10%. *)
let sources kind ctx =
  match kind with
  | Stiff -> [| Models.bearing2d ~seed:ctx.seed ~salt:"serve-stiff" |]
  | Churn ->
      Array.init (if ctx.smoke then 16 else 256) (fun k ->
          Models.perturb_load ~seed:ctx.seed ~salt:(Printf.sprintf "churn-%d" k)
            (Om_models.Bearing2d.generate ~model_name:(Printf.sprintf "Churn%d" k)
               ~n_rollers:3 ~profile_order:5))

let job_stream kind ctx sources =
  let rng = Draws.stream ~seed:ctx.seed ~salt:"serve-jobs" in
  let n = ref 0 in
  fun () ->
    incr n;
    let id = Printf.sprintf "j%d" !n in
    match kind with
    | Stiff ->
        let tend = [| 2.5e-4; 5e-4; 1e-3 |].(Random.State.int rng 3) in
        { Job.default with id; source = sources.(0); solver = Job.Lsoda; tend }
    | Churn ->
        let source = sources.(Draws.skewed_index rng (Array.length sources)) in
        { Job.default with id; source; solver = Job.Rk4 (Some churn_h); tend = churn_tend }

type server = {
  srv : Server.t;
  lock : Mutex.t;
  finished : Condition.t;
  mutable completions : int;
  journal : string option;
}

let start kind ctx ~tag =
  let journal =
    match kind with
    | Stiff -> None
    | Churn ->
        let p = Filename.concat ctx.run_dir (Printf.sprintf "journal-%d-%d.ndjson" ctx.seed tag) in
        if Sys.file_exists p then Sys.remove p;
        Some p
  in
  let config =
    { Server.default_config with
      queue_capacity = 1 lsl 16;
      executors = executors kind;
      cache_capacity = (match kind with Stiff -> 32 | Churn -> 16) }
  in
  let srv =
    Server.create ~config
      ?journal:(Option.map Om_serve.Journal.open_append journal)
      ~emit:ignore ()
  in
  { srv; lock = Mutex.create (); finished = Condition.create (); completions = 0; journal }

let stop s =
  ignore (Server.drain s.srv);
  Option.iter Sys.remove s.journal

let completed s =
  Mutex.lock s.lock;
  s.completions <- s.completions + 1;
  Condition.broadcast s.finished;
  Mutex.unlock s.lock

(* Submit with a sink that records the terminal status (on the executor
   domain) and counts the completion.  A refused job has no status to
   wait for, so it counts as completed at once. *)
let submit s sl =
  sl.submitted <- now ();
  let sink record =
    if Json.member record "type" = Some (Json.Str "status") then begin
      let t = now () in
      sl.status <- Some (parse record);
      sl.done_at <- t;
      completed s
    end
  in
  match Server.submit ~sink s.srv sl.spec with
  | `Ok _ -> true
  | `Duplicate | `Rejected _ | `Closed ->
      completed s;
      false

(* Block until [n] completions have been seen in total. *)
let await s n =
  Mutex.lock s.lock;
  while s.completions < n do Condition.wait s.finished s.lock done;
  let c = s.completions in
  Mutex.unlock s.lock;
  c

let direct_final (spec : Job.spec) =
  let solver =
    match spec.solver with
    | Job.Lsoda -> Objectmath.Runtime.Lsoda
    | Job.Rk4 (Some h) -> Objectmath.Runtime.Rk4 h
    | Job.Rk4 None -> Objectmath.Runtime.Rk4 (spec.tend /. 400.)
    | Job.Rkf45 -> Objectmath.Runtime.Rkf45
  in
  let r =
    Objectmath.Runtime.execute
      ~config:{ Objectmath.Runtime.default_config with
                execution = Objectmath.Runtime.Real_domains 0 }
      ~solver ~tend:spec.tend (Om_codegen.Pipeline.compile_source spec.source)
  in
  Om_ode.Odesys.final_state r.trajectory

let run kind ctx =
  let t = tally () in
  let sources = sources kind ctx in
  let next = job_stream kind ctx sources in
  let tags = ref 0 and warm_up = { (next ()) with id = "warm-up" } in
  let s, setup =
    setup ~teardown:stop (fun () ->
        incr tags;
        let s = start kind ctx ~tag:!tags in
        let w = slot warm_up in
        ignore (submit s w);
        ignore (await s 1);
        check t (Option.fold ~none:false ~some:(fun st -> st.ok) w.status) "warm-up job ok";
        s)
  in
  let time_kernels () = List.init segment_kernels (fun _ -> Calib.time_kernel ()) in
  let base = s.completions in
  let all = ref [] and refused = ref 0 in
  let submit_slot sl =
    all := sl :: !all;
    if not (submit s sl) then incr refused
  in
  (* Closed phase. *)
  let closed_window = 0.2 *. ctx.seconds in
  let closed = ref [] and issued = ref 0 in
  let c0 = now () in
  let top_up () =
    let completed = await s base - base in
    while !issued - completed < in_flight && now () -. c0 < closed_window do
      let sl = slot (next ()) in
      closed := sl :: !closed;
      submit_slot sl;
      incr issued
    done
  in
  top_up ();
  while now () -. c0 < closed_window do
    ignore (await s (base + !issued - in_flight + 1));
    top_up ()
  done;
  let c1 = now () in
  ignore (await s (base + !issued));
  let closed_done = List.length (List.filter (fun sl -> sl.done_at <= c1) !closed) in
  (* Open phase, in segments.  After each segment the generator waits for
     the server to go idle and times calibration kernels; a job's latency
     is scaled by the median kernel time at the two ends of its segment. *)
  let open_window = ctx.seconds -. closed_window in
  let arrivals =
    Draws.poisson_arrivals
      (Draws.stream ~seed:ctx.seed ~salt:"serve-arrivals")
      ~rate:(open_rate kind) ~duration:open_window
  in
  let opened = Array.map (fun _ -> slot (next ())) arrivals in
  let boundary = ref (time_kernels ()) in
  let kernels = ref !boundary and lags = ref [] and i = ref 0 in
  for k = 0 to int_of_float (Float.ceil (open_window /. segment_s)) - 1 do
    let origin = now () -. (float_of_int k *. segment_s) and first = !i in
    while !i < Array.length arrivals && arrivals.(!i) < float_of_int (k + 1) *. segment_s do
      let sl = opened.(!i) in
      sl.due <- origin +. arrivals.(!i);
      let wait = sl.due -. now () in
      if wait > 0. then Unix.sleepf wait;
      submit_slot sl;
      lags := (sl.submitted -. sl.due) :: !lags;
      incr i
    done;
    ignore (await s (base + !issued + !i));
    let after = time_kernels () in
    let kernel_s = Stat.median (!boundary @ after) in
    for j = first to !i - 1 do
      opened.(j).kernel_s <- kernel_s
    done;
    boundary := after;
    kernels := after @ !kernels
  done;
  let opened = Array.to_list opened and kernels = !kernels and lags = !lags in
  let rss_mb = self_peak_rss_mb () in
  let journal_bytes, replay_mb_per_s =
    match s.journal with
    | None -> (0., 0.)
    | Some p ->
        ignore (Server.drain s.srv);
        let bytes = float_of_int (Unix.stat p).st_size in
        let t0 = now () in
        check t (Result.is_ok (Om_serve.Journal.replay p)) "journal replays";
        (bytes, bytes /. 1e6 /. (now () -. t0))
  in
  stop s;
  let setup_s = setup_s ctx setup in
  (* Checks. *)
  let all = List.rev !all in
  check t (!refused = 0) "%d submissions refused" !refused;
  List.iter
    (fun sl ->
      match sl.status with
      | Some st -> check t st.ok "job %s ended %s" sl.spec.id st.text
      | None -> check t false "job %s has no terminal status" sl.spec.id)
    all;
  let rng = Draws.stream ~seed:ctx.seed ~salt:"serve-check" in
  let pool = Array.of_list all in
  for _ = 1 to min 8 (Array.length pool) do
    let sl = pool.(Random.State.int rng (Array.length pool)) in
    let served = Option.fold ~none:[||] ~some:(fun st -> st.final) sl.status in
    check t
      (bits_equal served (direct_final sl.spec))
      "job %s final state bitwise equal to a direct Runtime.execute" sl.spec.id
  done;
  let latency sl = sl.done_at -. sl.due in
  let latencies = List.map latency opened in
  if not ctx.trace then
    {
      tally = t;
      metrics =
        [
          ("setup_s", setup_s);
          ( "op_time_ms",
            ms (Stat.median
                  (List.map (fun sl -> Calib.scale ~kernel_s:sl.kernel_s (latency sl)) opened)) );
          ("peak_rss_mb", rss_mb);
        ];
    }
  else begin
    (* Even open-phase jobs are traced: their queue and run phases come
       from the status record, laid out from the submission time. *)
    let traced = List.filteri (fun i _ -> i land 1 = 0) opened
    and untraced = List.filteri (fun i _ -> i land 1 = 1) opened in
    Span.enabled := true;
    List.iter
      (fun sl ->
        Option.iter
          (fun st ->
            let clamp x = Float.min sl.done_at (Float.max sl.submitted x) in
            let q1 = clamp (sl.submitted +. st.queue_s) in
            Span.record_closed ~req:sl.spec.id ~name:"bench.job" ~t0:sl.due
              ~t1:sl.done_at
              ~children:
                [ ("serve.queue", sl.submitted, q1);
                  ("serve.run", q1, clamp (q1 +. st.run_s)) ])
          sl.status)
      traced;
    Span.enabled := false;
    let cache = Om_serve.Model_cache.stats (Server.cache s.srv) in
    let stats = Server.stats s.srv in
    let per_job f =
      Stat.sum (List.filter_map (fun sl -> Option.map f sl.status) all)
      /. float_of_int (List.length all)
    in
    let med sls = Stat.median (List.map latency sls) in
    let open_statuses = List.filter_map (fun sl -> sl.status) opened in
    let p_ms p f sts =
      match List.map f sts with [] -> 0. | xs -> ms (Stat.percentile p xs)
    in
    let runs hit = List.filter (fun st -> st.cache_hit = hit) open_statuses in
    {
      tally = t;
      metrics =
        span_fracs ()
        @ (match kind with
          | Stiff ->
              let compiled = Om_codegen.Pipeline.compile_source sources.(0) in
              [ ("codegen.rhs_call_us", Models.rhs_call_us compiled) ]
          | Churn -> [])
        @ [
            ("calib.kernel_ms", ms (Stat.median kernels));
            ("serve.latency_p99_ms", ms (Stat.percentile 99. latencies));
            ("serve.queue_p50_ms", p_ms 50. (fun st -> st.queue_s) open_statuses);
            ("serve.queue_p99_ms", p_ms 99. (fun st -> st.queue_s) open_statuses);
            ("serve.run_hit_p50_ms", p_ms 50. (fun st -> st.run_s) (runs true));
            ("serve.run_miss_p50_ms", p_ms 50. (fun st -> st.run_s) (runs false));
            ("trace.wall_s", Span.traced_wall ());
            ("trace.ops", float_of_int (List.length traced));
            ("trace.overhead_frac", (med traced /. med untraced) -. 1.);
            ("trace.coverage", Span.coverage ());
            ("loadgen.offered", float_of_int (List.length all));
            ( "loadgen.completed",
              float_of_int (List.length (List.filter (fun sl -> sl.status <> None) all)) );
            ("loadgen.lag_p99_ms", ms (Stat.percentile 99. lags));
            ("loadgen.closed_per_s", float_of_int closed_done /. (c1 -. c0));
            ( "loadgen.p90_over_p50",
              Stat.percentile 90. latencies /. Stat.median latencies );
            ("ode.steps", per_job (fun st -> st.steps));
            ("ode.rhs_calls", per_job (fun st -> st.rhs_calls));
            ( "serve.cache_hit_ratio",
              float_of_int cache.hits /. float_of_int (max 1 (cache.hits + cache.misses)) );
            ("serve.cache_compiles", float_of_int cache.compiles);
            ( "serve.rejected",
              float_of_int (stats.rejected_full + stats.rejected_quota + stats.rejected_deadline) );
            ("serve.retried", float_of_int stats.retried);
            ("serve.journal_bytes", journal_bytes);
            ("serve.journal_replay_mb_per_s", replay_mb_per_s);
          ];
    }
  end
