type config = {
  queue_capacity : int;
  executors : int;
  cache_capacity : int;
  timings : bool;
  resolve : string -> string option;
  max_queued_per_tenant : int;
  max_running_per_tenant : int;
  default_retries : int;
  retry_backoff_s : float;
  deadline_margin : float;
  result_cache_capacity : int;
}

let default_config =
  {
    queue_capacity = 64;
    executors = 1;
    cache_capacity = 32;
    timings = true;
    resolve = (fun _ -> None);
    max_queued_per_tenant = 0;
    max_running_per_tenant = 0;
    default_retries = 0;
    retry_backoff_s = 0.05;
    deadline_margin = 0.;
    result_cache_capacity = 0;
  }

type stats = {
  submitted : int;
  completed : int;
  ok : int;
  failed : int;
  rejected_full : int;
  rejected_quota : int;
  rejected_deadline : int;
  retried : int;
  recovered : int;
}

let zero_stats =
  {
    submitted = 0;
    completed = 0;
    ok = 0;
    failed = 0;
    rejected_full = 0;
    rejected_quota = 0;
    rejected_deadline = 0;
    retried = 0;
    recovered = 0;
  }

type item = {
  spec : Job.spec;
  token : Om_guard.Cancel.t;
  submitted_at : float;
  sink : (Json.t -> unit) option;
  attempt : int;  (* 1 for the first run of a job *)
  seq : int;  (* journal sequence of the accept record; 0 = durable *)
}

type retry_entry = { due : float; entry : item }

type t = {
  config : config;
  queue : item Job_queue.t;
  model_cache : Model_cache.t;
  results : Objectmath.Runtime.report Result_cache.t;
  journal : Journal.t option;
  emit_fn : Json.t -> unit;
  emit_mutex : Mutex.t;
  state_mutex : Mutex.t;
  idle : Condition.t;  (* inflight reached zero (state_mutex) *)
  drain_mutex : Mutex.t;
  tokens : (string, Om_guard.Cancel.t) Hashtbl.t;
  ewma : (string, float) Hashtbl.t;  (* model key -> smoothed run_s *)
  mutable counters : stats;
  mutable inflight : int;  (* accepted, no terminal status yet *)
  mutable next_id : int;
  mutable workers : unit Domain.t list;
  mutable summary : Json.t option;
  (* retry nursery: jobs in backoff, re-enqueued when due *)
  retry_mutex : Mutex.t;
  retry_wake : Condition.t;
  mutable retry_pending : retry_entry list;
  mutable retry_stop : bool;
  mutable retry_domain : unit Domain.t option;
}

let emit t record =
  Mutex.lock t.emit_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.emit_mutex) (fun () ->
      t.emit_fn record)

(* A job's records go to its own sink when it has one (socket mode: the
   submitting connection's writer, which carries its own mutex), to the
   server-wide emit otherwise. *)
let emit_item t item record =
  match item.sink with Some sink -> sink record | None -> emit t record

let with_state t f =
  Mutex.lock t.state_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.state_mutex) f

(* ---- journal hooks (no-ops without a journal) ---- *)

let journal_state t ~id ?attempt ?status ?delay_s state =
  match t.journal with
  | None -> ()
  | Some j -> Journal.record_state j ~id ?attempt ?status ?delay_s state

(* The journal's terminal vocabulary is coarser than the status records:
   done / failed / cancelled, with the fine-grained status carried as an
   attribute.  Replay only needs terminal-or-not; the attribute keeps
   the file auditable. *)
let journal_terminal t item status =
  let state =
    match status with
    | "ok" -> "done"
    | "cancelled" -> "cancelled"
    | _ -> "failed"
  in
  journal_state t ~id:item.spec.Job.id ~attempt:item.attempt ~status state

(* ---- job execution ---- *)

let runtime_solver spec =
  match spec.Job.solver with
  | Job.Rk4 (Some h) -> Objectmath.Runtime.Rk4 h
  | Job.Rk4 None -> Objectmath.Runtime.Rk4 (spec.Job.tend /. 400.)
  | Job.Rkf45 -> Objectmath.Runtime.Rkf45
  | Job.Lsoda -> Objectmath.Runtime.Lsoda

let execution_mode spec =
  (* Real domains when asked for; otherwise sequential — except that
     chaos task-poisons only land on the simulated executor, so chaos
     jobs without domains run there. *)
  if spec.Job.domains > 0 then Objectmath.Runtime.Real_domains spec.Job.domains
  else if spec.Job.chaos <> None then Objectmath.Runtime.Simulated
  else Objectmath.Runtime.Real_domains 0

let num f = Json.Num f

(* Build and emit each chunk record as soon as its rows are assembled:
   at no point does a second record-form copy of the whole trajectory
   exist, so a 10^6-row trajectory costs one chunk of rows at a time on
   top of the trajectory itself. *)
let emit_chunks t item (trajectory : Om_ode.Odesys.trajectory) =
  let spec = item.spec in
  if spec.Job.chunk > 0 then begin
    let n = Array.length trajectory.ts in
    let row k =
      Json.Arr
        (num trajectory.ts.(k)
        :: Array.to_list (Array.map num trajectory.states.(k)))
    in
    let rec go start seq =
      if start < n then begin
        let len = min spec.Job.chunk (n - start) in
        let rows = List.init len (fun i -> row (start + i)) in
        emit_item t item
          (Json.Obj
             [
               ("type", Json.Str "chunk");
               ("job", Json.Str spec.Job.id);
               ("seq", Json.Int seq);
               ("rows", Json.Arr rows);
             ]);
        go (start + len) (seq + 1)
      end
    in
    go 0 0
  end

let timing_fields t ~submitted_at ~started_at ~finished_at =
  if not t.config.timings then []
  else
    [
      ("queue_s", num (started_at -. submitted_at));
      ("run_s", num (finished_at -. started_at));
      ("total_s", num (finished_at -. submitted_at));
    ]

let status_record t item ~cache_state ~started_at fields =
  let finished_at = Unix.gettimeofday () in
  Json.Obj
    (("type", Json.Str "status")
    :: ("job", Json.Str item.spec.Job.id)
    :: ("tenant", Json.Str item.spec.Job.tenant)
    :: fields
    @ (if item.attempt > 1 then [ ("attempts", Json.Int item.attempt) ] else [])
    @ [ ("cache", Json.Str cache_state) ]
    @ timing_fields t ~submitted_at:item.submitted_at ~started_at
        ~finished_at)

let classify = function
  | Om_guard.Om_error.Error (Om_guard.Om_error.Cancelled _ as e) ->
      Some ("cancelled", Om_guard.Om_error.to_string e)
  | Om_guard.Om_error.Error (Om_guard.Om_error.Deadline_exceeded _ as e) ->
      Some ("deadline_exceeded", Om_guard.Om_error.to_string e)
  | Om_guard.Om_error.Error e ->
      Some ("solver_failure", Om_guard.Om_error.to_string e)
  | Om_lang.Flatten.Error msg -> Some ("model_error", msg)
  | Om_lang.Parser.Error (msg, pos) ->
      Some
        ( "model_error",
          Printf.sprintf "syntax error at %d:%d: %s" pos.Om_lang.Ast.line
            pos.Om_lang.Ast.col msg )
  | Om_lang.Lexer.Error (msg, pos) ->
      Some
        ( "model_error",
          Printf.sprintf "lexical error at %d:%d: %s" pos.Om_lang.Ast.line
            pos.Om_lang.Ast.col msg )
  | Invalid_argument msg -> Some ("model_error", msg)
  | _ -> None

let forget_token t id =
  with_state t (fun () -> Hashtbl.remove t.tokens id)

(* Every terminal status passes through here exactly once per accepted
   job: counters, journal terminal record, token release, and the
   inflight decrement that [drain] waits on. *)
let record_terminal t item ~succeeded ~status =
  journal_terminal t item status;
  forget_token t item.spec.Job.id;
  with_state t (fun () ->
      t.counters <-
        {
          t.counters with
          completed = t.counters.completed + 1;
          ok = (t.counters.ok + if succeeded then 1 else 0);
          failed = (t.counters.failed + if succeeded then 0 else 1);
        };
      t.inflight <- t.inflight - 1;
      if t.inflight = 0 then Condition.broadcast t.idle)

let ewma_alpha = 0.3

let note_run_time t ~key ~run_s =
  with_state t (fun () ->
      let next =
        match Hashtbl.find_opt t.ewma key with
        | None -> run_s
        | Some prev -> (ewma_alpha *. run_s) +. ((1. -. ewma_alpha) *. prev)
      in
      Hashtbl.replace t.ewma key next)

let estimated_run_time t ~key =
  with_state t (fun () -> Hashtbl.find_opt t.ewma key)

let result_cache_eligible t spec =
  t.config.result_cache_capacity > 0
  && spec.Job.chaos = None
  && spec.Job.domains = 0

let ok_fields (report : Objectmath.Runtime.report) ~final =
  [
    ("status", Json.Str "ok");
    ("steps", Json.Int report.solver_steps);
    ("rhs_calls", Json.Int report.rhs_calls);
    ("retries", Json.Int report.retries);
    ("faults", Json.Int report.faults_injected);
    ("degradations", Json.Int (List.length report.degradations));
    ("final", Json.Arr (Array.to_list (Array.map num final)));
  ]

(* Run one attempt of a job.  Emits the terminal status itself except
   when the failure is job-retryable and the job still has budget, in
   which case the caller (the executor loop) owns the retry hand-off. *)
let run_job t item =
  let spec = item.spec in
  let started_at = Unix.gettimeofday () in
  let fail ~cache_state status message =
    record_terminal t item ~succeeded:false ~status;
    emit_item t item
      (status_record t item ~cache_state ~started_at
         [ ("status", Json.Str status); ("error", Json.Str message) ]);
    `Done
  in
  let handle ~cache_state e =
    match e with
    | Om_guard.Om_error.Error err
      when Om_guard.Om_error.job_retryable err
           && item.attempt <= spec.Job.retries ->
        `Retry err
    | e -> (
        match classify e with
        | Some (status, message) -> fail ~cache_state status message
        | None -> fail ~cache_state "internal_error" (Printexc.to_string e))
  in
  match
    (* Queued-phase cancellation/deadline: don't even compile. *)
    Om_guard.Cancel.check item.token;
    Model_cache.lookup t.model_cache spec.Job.source
  with
  | exception e -> handle ~cache_state:"none" e
  | looked_up -> (
      let cache_state, entry =
        match looked_up with
        | `Hit entry -> ("hit", entry)
        | `Miss entry -> ("miss", entry)
      in
      let result_key =
        Result_cache.key ~source_key:entry.Model_cache.key
          ~solver:spec.Job.solver ~tend:spec.Job.tend
      in
      let cached =
        if result_cache_eligible t spec then
          Result_cache.lookup t.results result_key
        else None
      in
      match cached with
      | Some report ->
          (* Replay the stored trajectory verbatim: bitwise the same
             chunks and final state the computing job emitted. *)
          emit_chunks t item report.trajectory;
          let final = Om_ode.Odesys.final_state report.trajectory in
          record_terminal t item ~succeeded:true ~status:"ok";
          emit_item t item
            (status_record t item ~cache_state ~started_at
               (ok_fields report ~final
               @ [ ("result_cache", Json.Str "hit") ]));
          `Done
      | None -> (
          let runtime_config =
            {
              Objectmath.Runtime.default_config with
              execution = execution_mode spec;
              faults = Job.fault_plan ~attempt:item.attempt spec;
              cancel = Some item.token;
            }
          in
          (* The cached model is shared read-only; the runtime executes
             this job on its own scratch (register files, value vectors),
             so any number of executors can run the same hot model
             concurrently — no per-entry lock. *)
          match
            Objectmath.Runtime.execute_model ~config:runtime_config
              ~solver:(runtime_solver spec) ~tend:spec.Job.tend
              entry.Model_cache.compiled
          with
          | exception e -> handle ~cache_state e
          | report ->
              emit_chunks t item report.trajectory;
              let final = Om_ode.Odesys.final_state report.trajectory in
              note_run_time t ~key:entry.Model_cache.key
                ~run_s:(Unix.gettimeofday () -. started_at);
              if result_cache_eligible t spec then
                Result_cache.store t.results result_key report;
              record_terminal t item ~succeeded:true ~status:"ok";
              emit_item t item
                (status_record t item ~cache_state ~started_at
                   (ok_fields report ~final));
              `Done))

(* ---- retry nursery ---- *)

(* One domain holds the jobs sitting out their backoff and re-enqueues
   each when due.  [Condition] has no timed wait, so a non-empty nursery
   polls in short sleeps; an empty one blocks on the condition until a
   retry is scheduled or the server drains.  Re-enqueue uses [force]:
   the job was already admitted once, so capacity and quota cannot shed
   it on re-entry (and the queue cannot be closed while it is pending —
   a job in backoff holds an inflight count, which [drain] waits on
   before closing). *)
let retry_loop t () =
  let rec go () =
    Mutex.lock t.retry_mutex;
    let action =
      let now = Unix.gettimeofday () in
      let due, waiting =
        List.partition (fun r -> r.due <= now) t.retry_pending
      in
      match due with
      | _ :: _ ->
          t.retry_pending <- waiting;
          `Requeue due
      | [] ->
          if t.retry_stop && waiting = [] then `Stop
          else if waiting = [] then begin
            Condition.wait t.retry_wake t.retry_mutex;
            `Again
          end
          else
            `Sleep
              (List.fold_left
                 (fun acc r -> Float.min acc (r.due -. now))
                 0.02 waiting)
    in
    Mutex.unlock t.retry_mutex;
    match action with
    | `Stop -> ()
    | `Again -> go ()
    | `Sleep d ->
        Unix.sleepf (Float.max 0.001 d);
        go ()
    | `Requeue items ->
        List.iter
          (fun { entry; _ } ->
            let spec = entry.spec in
            journal_state t ~id:spec.Job.id ~attempt:entry.attempt "requeued";
            let deadline =
              if spec.Job.deadline_s > 0. then
                entry.submitted_at +. spec.Job.deadline_s
              else Float.infinity
            in
            match
              Job_queue.submit ~tenant:spec.Job.tenant ~deadline ~force:true
                t.queue ~priority:spec.Job.priority entry
            with
            | `Ok -> ()
            | `Closed | `Rejected_full | `Rejected_quota ->
                (* unreachable: inflight > 0 keeps the queue open, and
                   force bypasses shedding — but never lose a terminal *)
                record_terminal t entry ~succeeded:false
                  ~status:"internal_error";
                emit_item t entry
                  (Json.Obj
                     [
                       ("type", Json.Str "status");
                       ("job", Json.Str spec.Job.id);
                       ("tenant", Json.Str spec.Job.tenant);
                       ("status", Json.Str "internal_error");
                       ("error", Json.Str "retry re-enqueue failed");
                     ]))
          items;
        go ()
  in
  go ()

let schedule_retry t item err =
  let spec = item.spec in
  let delay =
    t.config.retry_backoff_s *. Float.pow 2. (float_of_int (item.attempt - 1))
  in
  journal_state t ~id:spec.Job.id ~attempt:item.attempt ~delay_s:delay
    "retrying";
  with_state t (fun () ->
      t.counters <- { t.counters with retried = t.counters.retried + 1 });
  emit_item t item
    (Json.Obj
       [
         ("type", Json.Str "retry");
         ("job", Json.Str spec.Job.id);
         ("tenant", Json.Str spec.Job.tenant);
         ("attempt", Json.Int item.attempt);
         ("delay_s", Json.Num delay);
         ("error", Json.Str (Om_guard.Om_error.to_string err));
       ]);
  let entry =
    { due = Unix.gettimeofday () +. delay; entry = { item with attempt = item.attempt + 1 } }
  in
  Mutex.lock t.retry_mutex;
  t.retry_pending <- entry :: t.retry_pending;
  Condition.signal t.retry_wake;
  Mutex.unlock t.retry_mutex

let executor_loop t () =
  let rec go () =
    match Job_queue.pop t.queue with
    | None -> ()
    | Some item ->
        journal_state t ~id:item.spec.Job.id ~attempt:item.attempt "running";
        (* A job's side effects must not precede its durable accept
           record, or a crash could execute a job that replay does not
           know about.  The wait is on the group-commit sync daemon, so
           a burst of accepts costs one fsync, not one each. *)
        (match t.journal with
        | Some j when item.seq > 0 -> Journal.await_durable j item.seq
        | _ -> ());
        let outcome =
          (* run_job reports every failure as a status record; nothing
             may kill the executor, so subsequent jobs keep being
             served. *)
          try run_job t item
          with e ->
            record_terminal t item ~succeeded:false ~status:"internal_error";
            emit_item t item
              (Json.Obj
                 [
                   ("type", Json.Str "status");
                   ("job", Json.Str item.spec.Job.id);
                   ("tenant", Json.Str item.spec.Job.tenant);
                   ("status", Json.Str "internal_error");
                   ("error", Json.Str (Printexc.to_string e));
                 ]);
            `Done
        in
        (* Release the tenant's running slot before any backoff wait. *)
        Job_queue.finished t.queue ~tenant:item.spec.Job.tenant;
        (match outcome with
        | `Done -> ()
        | `Retry err -> schedule_retry t item err);
        go ()
  in
  go ()

(* ---- public API ---- *)

let create ?(config = default_config) ?journal ~emit () =
  let model_cache = Model_cache.create ~capacity:config.cache_capacity () in
  let t =
    {
      config;
      queue =
        Job_queue.create ~max_queued_per_tenant:config.max_queued_per_tenant
          ~max_running_per_tenant:config.max_running_per_tenant
          ~capacity:config.queue_capacity ();
      model_cache;
      results = Result_cache.create config.result_cache_capacity;
      journal;
      emit_fn = emit;
      emit_mutex = Mutex.create ();
      state_mutex = Mutex.create ();
      idle = Condition.create ();
      drain_mutex = Mutex.create ();
      tokens = Hashtbl.create 64;
      ewma = Hashtbl.create 16;
      counters = zero_stats;
      inflight = 0;
      next_id = 0;
      workers = [];
      summary = None;
      retry_mutex = Mutex.create ();
      retry_wake = Condition.create ();
      retry_pending = [];
      retry_stop = false;
      retry_domain = None;
    }
  in
  t.workers <-
    List.init (max 1 config.executors) (fun _ -> Domain.spawn (executor_loop t));
  t.retry_domain <- Some (Domain.spawn (retry_loop t));
  t

let reject_record spec status message =
  Json.Obj
    [
      ("type", Json.Str "status");
      ("job", Json.Str spec.Job.id);
      ("tenant", Json.Str spec.Job.tenant);
      ("status", Json.Str status);
      ("error", Json.Str message);
    ]

let bump_rejected t status =
  with_state t (fun () ->
      t.counters <-
        (match status with
        | "rejected_full" ->
            { t.counters with rejected_full = t.counters.rejected_full + 1 }
        | "rejected_quota" ->
            { t.counters with rejected_quota = t.counters.rejected_quota + 1 }
        | _ ->
            {
              t.counters with
              rejected_deadline = t.counters.rejected_deadline + 1;
            }))

(* Deadline-aware early shedding: when the EWMA of this model's run time
   says the job cannot plausibly finish inside its own deadline, shed it
   now instead of burning an executor slot to produce the same verdict
   late.  Only models this server has already run have an estimate, and
   [deadline_margin = 0.] turns the policy off entirely — both matter
   for output determinism. *)
let deadline_doomed t spec =
  t.config.deadline_margin > 0.
  && spec.Job.deadline_s > 0.
  &&
  match
    estimated_run_time t ~key:(Om_codegen.Pipeline.source_key spec.Job.source)
  with
  | Some est -> est *. t.config.deadline_margin > spec.Job.deadline_s
  | None -> false

let submit_item ?sink ?(recovered = false) t spec =
  let spec =
    if spec.Job.id <> "" then spec
    else
      with_state t (fun () ->
          t.next_id <- t.next_id + 1;
          { spec with Job.id = Printf.sprintf "job-%d" t.next_id })
  in
  let token =
    Om_guard.Cancel.create ~deadline_s:spec.Job.deadline_s ~job:spec.Job.id ()
  in
  let emit_to = match sink with Some s -> s | None -> emit t in
  (* The tokens table is the set of in-flight ids; claiming is atomic
     with the duplicate check so two racing submissions of one id can
     never both enter the queue (the loser's cancel would otherwise be
     clobbered and the job made unreachable). *)
  let claimed =
    with_state t (fun () ->
        if Hashtbl.mem t.tokens spec.Job.id then false
        else begin
          Hashtbl.add t.tokens spec.Job.id token;
          true
        end)
  in
  if not claimed then begin
    emit_to
      (reject_record spec "invalid"
         "duplicate id: a job with this id is in flight");
    `Duplicate
  end
  else if (not recovered) && deadline_doomed t spec then begin
    forget_token t spec.Job.id;
    bump_rejected t "rejected_deadline";
    emit_to
      (reject_record spec "rejected_deadline"
         "deadline below the model's estimated run time");
    `Rejected "rejected_deadline"
  end
  else begin
    let submitted_at = Unix.gettimeofday () in
    (* Write-ahead: the accept record is journaled before the job can
       become runnable.  A recovered job already has its accept record
       from the previous process — replay re-enqueues it exactly once,
       marked by a requeued transition, never by a second accept. *)
    let seq =
      match t.journal with
      | None -> 0
      | Some j ->
          if recovered then begin
            Journal.record_state j ~id:spec.Job.id "requeued";
            0
          end
          else Journal.record_accept j spec
    in
    let item =
      { spec; token; submitted_at; sink; attempt = 1; seq }
    in
    let deadline =
      if spec.Job.deadline_s > 0. then submitted_at +. spec.Job.deadline_s
      else Float.infinity
    in
    let shed status message =
      (* journaled as accepted a moment ago: tombstone it so replay
         does not resurrect a job the client was told was shed *)
      if not recovered then
        journal_state t ~id:spec.Job.id ~status "cancelled";
      forget_token t spec.Job.id;
      bump_rejected t status;
      emit_to (reject_record spec status message);
      `Rejected status
    in
    match
      Job_queue.submit ~tenant:spec.Job.tenant ~deadline ~force:recovered
        t.queue ~priority:spec.Job.priority item
    with
    | `Ok ->
        with_state t (fun () ->
            t.counters <-
              {
                t.counters with
                submitted = t.counters.submitted + 1;
                recovered =
                  (t.counters.recovered + if recovered then 1 else 0);
              };
            t.inflight <- t.inflight + 1);
        `Ok spec.Job.id
    | `Rejected_full -> shed "rejected_full" "submission queue full"
    | `Rejected_quota ->
        shed "rejected_quota"
          (Printf.sprintf "tenant %S is at its queued-job quota"
             spec.Job.tenant)
    | `Closed ->
        if not recovered then
          journal_state t ~id:spec.Job.id ~status:"closed" "cancelled";
        forget_token t spec.Job.id;
        `Closed
  end

let submit ?sink t spec = submit_item ?sink t spec

let recover t (replay : Journal.replay) =
  List.fold_left
    (fun n spec ->
      match submit_item ~recovered:true t spec with
      | `Ok _ -> n + 1
      | `Duplicate | `Rejected _ | `Closed -> n)
    0 replay.Journal.pending

let cancel ?reason t ~job =
  match with_state t (fun () -> Hashtbl.find_opt t.tokens job) with
  | Some token -> Om_guard.Cancel.cancel ?reason token
  | None -> ()

let invalid ?sink t ~id message =
  let record =
    Json.Obj
      [
        ("type", Json.Str "status");
        ("job", Json.Str id);
        ("status", Json.Str "invalid");
        ("error", Json.Str message);
      ]
  in
  match sink with Some s -> s record | None -> emit t record

let handle_line ?sink t line =
  let line = String.trim line in
  if line = "" then `Quiet
  else
    match Json.of_string line with
    | exception Json.Error msg ->
        invalid ?sink t ~id:"" ("bad JSON: " ^ msg);
        `Replied
    | json -> (
        match Option.bind (Json.member json "type") Json.to_str with
        | Some "cancel" -> (
            match Option.bind (Json.member json "job") Json.to_str with
            | Some job ->
                let reason =
                  Option.bind (Json.member json "reason") Json.to_str
                in
                cancel ?reason t ~job;
                `Quiet
            | None ->
                invalid ?sink t ~id:"" "cancel record without \"job\"";
                `Replied)
        | Some other when other <> "job" ->
            invalid ?sink t ~id:"" (Printf.sprintf "unknown record type %S" other);
            `Replied
        | _ -> (
            match
              Job.of_json ~default_retries:t.config.default_retries
                ~resolve:t.config.resolve json
            with
            | Error msg ->
                let id =
                  Option.value ~default:""
                    (Option.bind (Json.member json "id") Json.to_str)
                in
                invalid ?sink t ~id msg;
                `Replied
            | Ok spec -> (
                match submit ?sink t spec with
                | `Ok id -> `Queued id
                | `Duplicate | `Rejected _ -> `Replied
                | `Closed -> `Quiet)))

let stats t = with_state t (fun () -> t.counters)
let cache t = t.model_cache

let cache_summary t =
  let cs = Model_cache.stats t.model_cache in
  Json.Obj
    [
      ("hits", Json.Int cs.hits);
      ("misses", Json.Int cs.misses);
      ("compiles", Json.Int cs.compiles);
      ("evictions", Json.Int cs.evictions);
      ("entries", Json.Int cs.entries);
    ]
let result_cache_stats t = Result_cache.stats t.results

let drain t =
  (* The whole drain runs under one mutex: the first caller waits out
     the inflight jobs (including retries sitting in backoff — a job in
     backoff still counts), closes the queue, joins the executors and
     the retry nursery, and emits the summary; every later or concurrent
     caller blocks until that finishes and gets the cached record
     without re-emitting — drain is idempotent. *)
  Mutex.lock t.drain_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.drain_mutex) (fun () ->
      match t.summary with
      | Some s -> s
      | None ->
          with_state t (fun () ->
              while t.inflight > 0 do
                Condition.wait t.idle t.state_mutex
              done);
          Job_queue.close t.queue;
          let workers =
            with_state t (fun () ->
                let w = t.workers in
                t.workers <- [];
                w)
          in
          List.iter Domain.join workers;
          Mutex.lock t.retry_mutex;
          t.retry_stop <- true;
          Condition.broadcast t.retry_wake;
          Mutex.unlock t.retry_mutex;
          (match
             with_state t (fun () ->
                 let d = t.retry_domain in
                 t.retry_domain <- None;
                 d)
           with
          | Some d -> Domain.join d
          | None -> ());
          Option.iter Journal.close t.journal;
          let counters = stats t in
          let rejected =
            counters.rejected_full + counters.rejected_quota
            + counters.rejected_deadline
          in
          let opt_count name n =
            if n > 0 then [ (name, Json.Int n) ] else []
          in
          let result_fields =
            if t.config.result_cache_capacity = 0 then []
            else
              let hits, misses, entries = result_cache_stats t in
              [
                ( "results",
                  Json.Obj
                    [
                      ("hits", Json.Int hits);
                      ("misses", Json.Int misses);
                      ("entries", Json.Int entries);
                    ] );
              ]
          in
          let summary =
            Json.Obj
              ([
                 ("type", Json.Str "summary");
                 ("jobs", Json.Int counters.submitted);
                 ("ok", Json.Int counters.ok);
                 ("failed", Json.Int counters.failed);
                 ("rejected", Json.Int rejected);
               ]
              @ opt_count "retried" counters.retried
              @ opt_count "recovered" counters.recovered
              @ [ ("cache", cache_summary t) ]
              @ result_fields)
          in
          t.summary <- Some summary;
          emit t summary;
          summary)
