(* Tests for the multi-tenant simulation service: the NDJSON codec, job
   decoding, the bounded priority queue, the compiled-model cache (hits
   skip compilation and are bitwise-identical, LRU eviction, cross-tenant
   artifact sharing without data leakage), and the server loop
   (cancellation, deadlines, chaos survival, streamed chunks). *)

module J = Om_serve.Json
module Job = Om_serve.Job
module Q = Om_serve.Job_queue
module MC = Om_serve.Model_cache
module RC = Om_serve.Result_cache
module Jr = Om_serve.Journal
module S = Om_serve.Server
module P = Om_codegen.Pipeline

let decay k x0 =
  Printf.sprintf
    "model M; class C parameter k = %s; variable x init %s; equation der(x) \
     = 0.0 - k * x; end; instance c of C;"
    k x0

let resolve = function
  | "servo" -> Some (Om_models.Servo.source ())
  | _ -> None

(* ---------- JSON codec ---------- *)

let test_json_roundtrip () =
  let samples =
    [
      {|{"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],"e":{}}|};
      {|[1.0,0.1,1e300]|};
      {|"plain"|};
      {|-42|};
    ]
  in
  List.iter
    (fun s ->
      let v = J.of_string s in
      Alcotest.(check string)
        ("roundtrip " ^ s)
        (J.to_string v)
        (J.to_string (J.of_string (J.to_string v))))
    samples

let test_json_floats () =
  (* Equal floats print to equal bytes; non-finite values become null. *)
  Alcotest.(check string) "shortest roundtrip" "[0.1,1.0,12345.0]"
    (J.to_string (J.Arr [ J.Num 0.1; J.Num 1.0; J.Num 12345.0 ]));
  Alcotest.(check string) "non-finite to null" "[null,null,null]"
    (J.to_string
       (J.Arr [ J.Num Float.nan; J.Num Float.infinity; J.Num Float.neg_infinity ]));
  let f = 0.30000000000000004 in
  let printed = J.to_string (J.Num f) in
  Alcotest.(check (float 0.)) "reparses to the same float" f
    (match J.of_string printed with J.Num g -> g | J.Int n -> float_of_int n | _ -> Float.nan)

let test_json_errors () =
  (* Nesting is bounded at 512 levels, so a hostile line fails with
     [Error] instead of overflowing the stack. *)
  let nested n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool) "512 levels parse" true
    (match J.of_string (nested 512) with J.Arr [ _ ] -> true | _ -> false);
  let bad =
    [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\":}"; "1 2"; nested 513 ]
    @ [
        String.make 1_000_000 '[';
        String.concat "" (List.init 600 (fun _ -> {|{"a":|}));
      ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("rejects " ^ String.sub s 0 (min 20 (String.length s)))
        true
        (match J.of_string s with
        | exception J.Error _ -> true
        | _ -> false))
    bad

(* ---------- job decoding ---------- *)

let test_job_defaults () =
  let json = J.of_string {|{"source":"model M; end;"}|} in
  match Job.of_json ~default_id:"j0" ~resolve json with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      Alcotest.(check string) "id" "j0" spec.Job.id;
      Alcotest.(check string) "tenant" "default" spec.Job.tenant;
      Alcotest.(check int) "priority" 0 spec.Job.priority;
      Alcotest.(check (float 0.)) "tend" 1.0 spec.Job.tend;
      Alcotest.(check bool) "no chaos" true (spec.Job.chaos = None)

let test_job_decode_errors () =
  let expect_err what line =
    match Job.of_json ~resolve (J.of_string line) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": expected a decode error")
  in
  expect_err "no model" {|{"id":"x"}|};
  expect_err "both source and model" {|{"source":"m","model":"servo"}|};
  expect_err "unknown builtin" {|{"model":"nonesuch"}|};
  expect_err "unknown solver" {|{"source":"m","solver":"euler"}|};
  expect_err "bad chaos" {|{"source":"m","chaos":{"kind":"nan","round":0}}|};
  expect_err "negative deadline" {|{"source":"m","deadline_s":-1}|};
  expect_err "not an object" {|[1,2]|}

let test_job_chaos_plan () =
  let json =
    J.of_string
      {|{"source":"m","chaos":{"kind":"inf","task":2,"round":3,"count":2}}|}
  in
  match Job.of_json ~resolve json with
  | Error e -> Alcotest.fail e
  | Ok spec -> (
      match Job.fault_plan spec with
      | None -> Alcotest.fail "expected a fault plan"
      | Some plan ->
          let hit round =
            (* [task_poison] yields the poison value, [0.] when none. *)
            Om_guard.Fault_plan.task_poison plan ~round ~task:2 <> 0.
          in
          Alcotest.(check bool) "round 3 poisoned" true (hit 3);
          Alcotest.(check bool) "round 4 poisoned" true (hit 4);
          Alcotest.(check bool) "round 5 clean" false (hit 5))

(* ---------- bounded priority queue ---------- *)

let test_queue_priority_order () =
  let q = Q.create ~capacity:8 () in
  List.iter
    (fun (p, x) -> Alcotest.(check bool) "accepted" true (Q.submit q ~priority:p x = `Ok))
    [ (0, "a"); (5, "b"); (0, "c"); (9, "d"); (5, "e") ];
  Q.close q;
  let rec drain acc =
    match Q.pop q with Some x -> drain (x :: acc) | None -> List.rev acc
  in
  (* Highest priority first; FIFO within a priority. *)
  Alcotest.(check (list string)) "pop order" [ "d"; "b"; "e"; "a"; "c" ]
    (drain [])

let test_queue_bounded_rejection () =
  let q = Q.create ~capacity:2 () in
  Alcotest.(check bool) "1st" true (Q.submit q ~priority:0 1 = `Ok);
  Alcotest.(check bool) "2nd" true (Q.submit q ~priority:0 2 = `Ok);
  Alcotest.(check bool) "3rd rejected" true (Q.submit q ~priority:7 3 = `Rejected_full);
  Alcotest.(check int) "length" 2 (Q.length q);
  ignore (Q.pop q);
  Alcotest.(check bool) "space again" true (Q.submit q ~priority:0 4 = `Ok)

let test_queue_close () =
  let q = Q.create ~capacity:4 () in
  ignore (Q.submit q ~priority:0 "x");
  Q.close q;
  Alcotest.(check bool) "closed rejects" true (Q.submit q ~priority:0 "y" = `Closed);
  Alcotest.(check bool) "drains queued" true (Q.pop q = Some "x");
  Alcotest.(check bool) "then none" true (Q.pop q = None);
  Alcotest.(check bool) "closed" true (Q.closed q)

let test_queue_concurrent_consumers () =
  (* Two consumer domains drain 50 items exactly once between them. *)
  let q = Q.create ~capacity:64 () in
  let seen = Atomic.make 0 in
  let consumer () =
    let rec go n = match Q.pop q with
      | Some _ -> Atomic.incr seen; go (n + 1)
      | None -> n
    in
    go 0
  in
  let d1 = Domain.spawn consumer and d2 = Domain.spawn consumer in
  for i = 1 to 50 do ignore (Q.submit q ~priority:(i mod 3) i) done;
  Q.close q;
  let n1 = Domain.join d1 and n2 = Domain.join d2 in
  Alcotest.(check int) "all items consumed once" 50 (n1 + n2);
  Alcotest.(check int) "seen count" 50 (Atomic.get seen)

(* ---------- compiled-model cache ---------- *)

let test_cache_hit_skips_compile_bitwise () =
  (* A hit must not re-run the pipeline (compile-counter stays put) and
     must integrate bitwise-identically to the cold compile. *)
  let source = decay "1.0" "2.0" in
  let cold = P.compile_source source in
  let cache = MC.create ~capacity:4 () in
  let e1 =
    match MC.lookup cache source with `Miss e -> e | `Hit _ -> Alcotest.fail "cold hit"
  in
  let before = P.compile_count () in
  let e2 =
    match MC.lookup cache source with `Hit e -> e | `Miss _ -> Alcotest.fail "warm miss"
  in
  Alcotest.(check int) "hit compiles nothing" before (P.compile_count ());
  Alcotest.(check bool) "same artifact" true (e1.MC.compiled == e2.MC.compiled);
  let final (rep : Objectmath.Runtime.report) =
    Om_ode.Odesys.final_state rep.trajectory
  in
  Alcotest.(check bool) "bitwise identical to cold compile" true
    (final (Objectmath.Runtime.execute ~tend:1. cold)
    = final (Objectmath.Runtime.execute_model ~tend:1. e2.MC.compiled));
  let s = MC.stats cache in
  Alcotest.(check int) "hits" 1 s.MC.hits;
  Alcotest.(check int) "misses" 1 s.MC.misses;
  Alcotest.(check int) "compiles" 1 s.MC.compiles

let test_cache_lru_eviction () =
  let s1 = decay "1.0" "1.0" and s2 = decay "2.0" "1.0" and s3 = decay "3.0" "1.0" in
  let cache = MC.create ~capacity:2 () in
  ignore (MC.lookup cache s1);
  ignore (MC.lookup cache s2);
  ignore (MC.lookup cache s1);  (* s1 most recently used; s2 is the LRU *)
  ignore (MC.lookup cache s3);  (* evicts s2 *)
  let st = MC.stats cache in
  Alcotest.(check int) "entries at capacity" 2 st.MC.entries;
  Alcotest.(check int) "one eviction" 1 st.MC.evictions;
  Alcotest.(check (list string)) "s2 evicted, s3 freshest"
    [ P.source_key s3; P.source_key s1 ]
    (MC.resident cache);
  (match MC.lookup cache s2 with
  | `Miss _ -> ()
  | `Hit _ -> Alcotest.fail "evicted entry still resident");
  Alcotest.(check int) "re-adding evicts again" 2 (MC.stats cache).MC.evictions

let test_cache_capacity_zero_never_stores () =
  let source = decay "1.0" "1.0" in
  let cache = MC.create ~capacity:0 () in
  (match MC.lookup cache source with
  | `Miss _ -> ()
  | `Hit _ -> Alcotest.fail "nothing was stored yet");
  (match MC.lookup cache source with
  | `Miss _ -> ()
  | `Hit _ -> Alcotest.fail "capacity 0 must never hit");
  let st = MC.stats cache in
  Alcotest.(check int) "compiled every time" 2 st.MC.compiles;
  Alcotest.(check int) "nothing resident" 0 st.MC.entries

(* ---------- server ---------- *)

let collecting_server ?(config = S.default_config) ?journal () =
  let records = ref [] in
  let mu = Mutex.create () in
  let emit r =
    Mutex.lock mu;
    records := r :: !records;
    Mutex.unlock mu
  in
  let config = { config with S.timings = false; resolve } in
  (S.create ~config ?journal ~emit (), fun () -> List.rev !records)

let str_field r k = Option.bind (J.member r k) J.to_str
let int_field r k = Option.bind (J.member r k) J.to_int

let statuses records =
  List.filter_map
    (fun r ->
      match (str_field r "type", str_field r "job", str_field r "status") with
      | Some "status", Some job, Some st -> Some (job, st)
      | _ -> None)
    records

let status_of records job = List.assoc_opt job (statuses records)

let status_record rs id =
  List.find
    (fun r -> str_field r "type" = Some "status" && str_field r "job" = Some id)
    rs

let test_server_tenants_share_artifact_no_leakage () =
  (* Same source from two tenants: one compile, one cached artifact —
     but each job's numerics are its own and bitwise-reproducible. *)
  let server, records = collecting_server () in
  let source = decay "1.0" "2.0" in
  let submit tenant id =
    match S.submit server { Job.default with Job.id; tenant; source } with
    | `Ok _ -> ()
    | _ -> Alcotest.fail "submit failed"
  in
  submit "alice" "a1";
  submit "bob" "b1";
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "alice ok" (Some "ok") (status_of rs "a1");
  Alcotest.(check (option string)) "bob ok" (Some "ok") (status_of rs "b1");
  let cs = MC.stats (S.cache server) in
  Alcotest.(check int) "one compile for both tenants" 1 cs.MC.compiles;
  Alcotest.(check int) "second tenant hit" 1 cs.MC.hits;
  (* No leakage: each status carries its own tenant, and the shared
     artifact yields the same bitwise result as a private compile. *)
  let final job =
    let r = List.find (fun r -> str_field r "job" = Some job) rs in
    match J.member r "final" with
    | Some (J.Arr xs) -> List.filter_map J.to_float xs
    | _ -> Alcotest.fail ("no final state for " ^ job)
  in
  let tenant job =
    let r = List.find (fun r -> str_field r "job" = Some job) rs in
    str_field r "tenant"
  in
  Alcotest.(check (option string)) "alice tagged" (Some "alice") (tenant "a1");
  Alcotest.(check (option string)) "bob tagged" (Some "bob") (tenant "b1");
  let solo =
    Array.to_list
      (Om_ode.Odesys.final_state
         (Objectmath.Runtime.execute ~tend:1. (P.compile_source source)).trajectory)
  in
  Alcotest.(check bool) "alice bitwise = solo" true (final "a1" = solo);
  Alcotest.(check bool) "bob bitwise = solo" true (final "b1" = solo)

let test_server_chaos_fails_job_not_server () =
  (* A chaos plan longer than the retry budget fails its job with
     status solver_failure; later jobs on the same server still run. *)
  let server, records = collecting_server () in
  let source = decay "1.0" "1.0" in
  let chaos =
    { Job.default with
      Job.id = "boom"; source;
      chaos = Some { Job.kind = `Nan; task = 0; round = 1; count = 64; attempts = 0 } }
  in
  ignore (S.submit server chaos);
  ignore (S.submit server { Job.default with Job.id = "next"; source });
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "chaos job fails"
    (Some "solver_failure") (status_of rs "boom");
  Alcotest.(check (option string)) "server survives, next job ok"
    (Some "ok") (status_of rs "next")

let test_server_chaos_recovers_bitwise () =
  (* One poisoned round inside the retry budget: the job succeeds, the
     report shows the injection + retry, and numerics are unaffected. *)
  let server, records = collecting_server () in
  let source = decay "1.0" "2.0" in
  let job =
    { Job.default with
      Job.id = "c1"; source;
      chaos = Some { Job.kind = `Inf; task = 0; round = 2; count = 1; attempts = 0 } }
  in
  ignore (S.submit server job);
  ignore (S.submit server { Job.default with Job.id = "clean"; source });
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "chaos job ok" (Some "ok") (status_of rs "c1");
  let rec_of job = List.find (fun r -> str_field r "job" = Some job) rs in
  Alcotest.(check bool) "fault injected" true
    (match int_field (rec_of "c1") "faults" with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "retried" true
    (match int_field (rec_of "c1") "retries" with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "bitwise equal to clean run" true
    (J.member (rec_of "c1") "final" = J.member (rec_of "clean") "final")

let test_server_deadline_exceeded () =
  (* An already-expired deadline fails the job before it even compiles. *)
  let server, records = collecting_server () in
  let job =
    { Job.default with
      Job.id = "late"; source = decay "1.0" "1.0"; deadline_s = 1e-9 }
  in
  ignore (S.submit server job);
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "deadline status"
    (Some "deadline_exceeded") (status_of rs "late");
  let r = List.find (fun r -> str_field r "job" = Some "late") rs in
  Alcotest.(check (option string)) "no cache involvement" (Some "none")
    (str_field r "cache")

let test_server_cancel () =
  (* Cancelling a queued/running job surfaces as status "cancelled".
     The tiny step size makes the run effectively unbounded, so the
     cancel always lands before the job can finish on its own. *)
  let server, records = collecting_server () in
  let job =
    { Job.default with Job.id = "victim"; source = decay "1.0" "1.0";
      solver = Job.Rk4 (Some 1e-8); tend = 50. }
  in
  ignore (S.submit server job);
  S.cancel server ~job:"victim" ~reason:"test says stop";
  ignore (S.drain server);
  Alcotest.(check (option string)) "cancelled"
    (Some "cancelled") (status_of (records ()) "victim")

let test_server_model_error_and_invalid () =
  let server, records = collecting_server () in
  let feed line = ignore (S.handle_line server line) in
  (* a million open brackets: an invalid reply, and serving goes on *)
  feed (String.make 1_000_000 '[');
  feed {|{"id":"bad","source":"not a model"}|};
  feed "this is not json";
  feed {|{"id":"nomodel"}|};
  feed {|{"type":"frobnicate"}|};
  feed "";
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "model error"
    (Some "model_error") (status_of rs "bad");
  let invalids =
    List.length (List.filter (fun (_, st) -> st = "invalid") (statuses rs))
  in
  Alcotest.(check int) "four invalid records" 4 invalids

let final_of records job =
  match J.member (status_record records job) "final" with
  | Some (J.Arr xs) -> List.filter_map J.to_float xs
  | _ -> Alcotest.fail ("no final state for " ^ job)

let test_server_sequential_job_builds_no_back_end () =
  (* Serve's default execution is sequential: a miss builds the model's
     front and its sequential program, never the per-task back end.  A
     job on real domains then builds it, once, and ends on the same
     bits. *)
  let server, records = collecting_server () in
  let source = decay "1.5" "2.0" in
  let backs = P.back_count () in
  let submit id domains =
    match S.submit server { Job.default with Job.id; source; domains } with
    | `Ok _ -> ()
    | _ -> Alcotest.fail "submit failed"
  in
  submit "seq" 0;
  ignore (S.drain server);
  Alcotest.(check int) "sequential job built no back end" backs
    (P.back_count ());
  let server2, records2 = collecting_server () in
  let submit2 id domains =
    match S.submit server2 { Job.default with Job.id; source; domains } with
    | `Ok _ -> ()
    | _ -> Alcotest.fail "submit failed"
  in
  submit2 "par" 2;
  submit2 "seq-again" 0;
  ignore (S.drain server2);
  Alcotest.(check int) "a two-domain job builds it once" (backs + 1)
    (P.back_count ());
  let rs = records () @ records2 () in
  List.iter
    (fun job ->
      Alcotest.(check (option string)) (job ^ " ok") (Some "ok")
        (status_of rs job))
    [ "seq"; "par"; "seq-again" ];
  Alcotest.(check bool) "bitwise across modes" true
    (final_of rs "seq" = final_of rs "par"
    && final_of rs "seq" = final_of rs "seq-again")

(* ---------- one stiff path ---------- *)

module R = Objectmath.Runtime

let bits_of = Array.map Int64.bits_of_float
let final_bits (rep : R.report) = bits_of (Om_ode.Odesys.final_state rep.trajectory)
let real_domains n = { R.default_config with R.execution = R.Real_domains n }

let served_lsoda ~source ~tend ~domains =
  let server, records = collecting_server () in
  (match
     S.submit server
       { Job.default with Job.id = "stiff"; source; solver = Job.Lsoda; tend;
         domains }
   with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "submit failed");
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "served job ok" (Some "ok")
    (status_of rs "stiff");
  bits_of (Array.of_list (final_of rs "stiff"))

let test_one_stiff_trajectory () =
  (* The bearing under LSODA to t = 0.03 takes 850 steps and reaches its
     stiff phase.  Every path that integrates the compiled model takes
     the model's symbolic Jacobian, so all of them end on the same bits:
     the runtime at 0, 1 and 2 worker domains (the supervisor evaluates
     the Jacobian between rounds), a served job, and the system
     [omc simulate] builds. *)
  let source = Om_models.Bearing2d.source () in
  let tend = 0.03 in
  let m = P.model_of_source source in
  let seq = R.execute_model ~config:(real_domains 0) ~solver:R.Lsoda ~tend m in
  Alcotest.(check int) "850 steps" 850 seq.solver_steps;
  Alcotest.(check bool) "the stiff phase is reached" true (seq.jac_calls > 0);
  let want = final_bits seq in
  let fm = Om_lang.Flatten.flatten_string source in
  let sm = P.model_of_flat fm in
  let sys = P.system sm (P.sequential_fn sm) in
  let sim =
    Om_ode.Lsoda.integrate sys ~t0:0.
      ~y0:(Om_lang.Flat_model.initial_values fm) ~tend
  in
  Alcotest.(check bool) "omc simulate's system" true
    (bits_of (Om_ode.Odesys.final_state sim.trajectory) = want);
  Alcotest.(check int) "the same Jacobian calls" seq.jac_calls
    sys.counters.jac_calls;
  List.iter
    (fun n ->
      let rep =
        R.execute_model ~config:(real_domains n) ~solver:R.Lsoda ~tend m
      in
      Alcotest.(check bool)
        (Printf.sprintf "runtime on %d worker domain(s)" n)
        true
        (final_bits rep = want))
    [ 1; 2 ];
  Alcotest.(check bool) "served job" true
    (served_lsoda ~source ~tend ~domains:0 = want)

let test_no_jacobian_call_derives_none () =
  (* The symbolic Jacobian is derived on a system's first Jacobian call,
     never when the system is built: an RK4 run, and LSODA runs that stay
     non-stiff (serve-stiff's shortest jobs), derive none. *)
  let source = Om_models.Bearing2d.source () in
  let m = P.model_of_source source in
  let jacobians = P.jacobian_count () in
  let rk4 =
    R.execute_model ~config:(real_domains 0) ~solver:(R.Rk4 2.5e-5)
      ~tend:2.5e-4 m
  in
  let lsoda =
    R.execute_model ~config:(real_domains 0) ~solver:R.Lsoda ~tend:2.5e-4 m
  in
  Alcotest.(check int) "no Jacobian calls" 0 (rk4.jac_calls + lsoda.jac_calls);
  ignore (served_lsoda ~source ~tend:2.5e-4 ~domains:0);
  Alcotest.(check int) "no Jacobian derived" jacobians (P.jacobian_count ());
  (* The first Jacobian call derives it, once per model. *)
  let sys = P.system m (P.sequential_fn m) in
  let y0 = Om_lang.Flat_model.initial_values (P.flat_model m) in
  let v = Array.make (Om_ode.Sparse.nnz (P.sparsity m)) 0. in
  (Option.get sys.sjac) 0. y0 v;
  (Option.get sys.sjac) 0. y0 v;
  ignore (P.system m (P.sequential_fn m));
  Alcotest.(check int) "derived on the first call, once" (jacobians + 1)
    (P.jacobian_count ())

let test_server_model_errors_on_miss () =
  (* Ill-formed sources fail on the miss, as the whole compile did:
     every front-end error is raised by the eager front, with its
     status and message, and builds nothing further. *)
  let server, records = collecting_server () in
  let body eq =
    "model M; class C variable x init 2.0; " ^ eq ^ " end; instance c of C;"
  in
  let cases =
    [
      ("lex", body "equation der(x) = 0.0 - x $;",
       "lexical error at 1:65: unexpected character '$'");
      ("syntax", "not a model",
       "syntax error at 1:1: expected 'model' but found identifier \"not\"");
      ("class",
       "model M; class C variable x init 2.0; equation der(x) = 0.0 - x; \
        end; instance c of D;",
       "unknown class D (instantiated as c)");
      ("free", body "equation der(x) = 0.0 - y;",
       "unresolved name y in the equation for c.x");
      ("state", body "variable z init 1.0; equation der(x) = 0.0 - x;",
       "no equation for state variable c.z");
    ]
  in
  let backs = P.back_count () in
  List.iter
    (fun (id, source, _) ->
      ignore (S.submit server { Job.default with Job.id; source }))
    cases;
  ignore (S.drain server);
  let rs = records () in
  List.iter
    (fun (id, _, message) ->
      Alcotest.(check (option string)) (id ^ " status") (Some "model_error")
        (status_of rs id);
      Alcotest.(check (option string)) (id ^ " message") (Some message)
        (str_field (status_record rs id) "error"))
    cases;
  Alcotest.(check int) "nothing compiled" 0
    (MC.stats (S.cache server)).MC.compiles;
  Alcotest.(check int) "no back end built" backs (P.back_count ())

let test_server_chunk_stream () =
  (* chunk=150 over a 401-row trajectory: 3 chunk records, rows
     reassemble the full trajectory, all before the status record. *)
  let server, records = collecting_server () in
  let job =
    { Job.default with Job.id = "s"; source = decay "1.0" "2.0"; chunk = 150 }
  in
  ignore (S.submit server job);
  ignore (S.drain server);
  let rs = records () in
  let chunks = List.filter (fun r -> str_field r "type" = Some "chunk") rs in
  Alcotest.(check int) "chunk count" 3 (List.length chunks);
  let rows =
    List.concat_map
      (fun r ->
        match J.member r "rows" with Some (J.Arr l) -> l | _ -> [])
      chunks
  in
  Alcotest.(check int) "401 rows total" 401 (List.length rows);
  List.iteri
    (fun i r ->
      Alcotest.(check (option int)) "seq ordered" (Some i) (int_field r "seq"))
    chunks;
  (* Every chunk precedes the job's status record. *)
  let status_pos = ref (-1) and last_chunk = ref (-1) in
  List.iteri
    (fun i r ->
      match str_field r "type" with
      | Some "status" when !status_pos < 0 -> status_pos := i
      | Some "chunk" -> last_chunk := i
      | _ -> ())
    rs;
  Alcotest.(check bool) "chunks before status" true (!last_chunk < !status_pos)

let test_server_rejection_overload () =
  (* With a capacity-1 queue and the lone executor busy, extra
     submissions are shed as "rejected" while accepted jobs complete. *)
  let config = { S.default_config with S.queue_capacity = 1 } in
  let server, records = collecting_server ~config () in
  let mk id = { Job.default with Job.id = id; source = decay "1.0" "1.0" } in
  let outcomes =
    List.map
      (fun id ->
        match S.submit server (mk id) with
        | `Ok _ -> `Ok
        | `Duplicate -> `Duplicate
        | `Rejected status ->
            (* a full queue must shed with the global-overload status,
               never a tenant-quota or deadline one *)
            Alcotest.(check string) "full-queue shed status" "rejected_full"
              status;
            `Rejected
        | `Closed -> `Closed)
      [ "r1"; "r2"; "r3"; "r4"; "r5"; "r6" ]
  in
  ignore (S.drain server);
  let accepted = List.length (List.filter (( = ) `Ok) outcomes) in
  let rejected = List.length (List.filter (( = ) `Rejected) outcomes) in
  Alcotest.(check int) "every submission accounted" 6 (accepted + rejected);
  Alcotest.(check bool) "nothing closed early" false (List.mem `Closed outcomes);
  Alcotest.(check bool) "distinct ids never duplicates" false
    (List.mem `Duplicate outcomes);
  let rs = records () in
  let ok_count =
    List.length (List.filter (fun (_, st) -> st = "ok") (statuses rs))
  in
  let rejected_count =
    List.length
      (List.filter (fun (_, st) -> st = "rejected_full") (statuses rs))
  in
  Alcotest.(check int) "accepted jobs all ok" accepted ok_count;
  Alcotest.(check int) "rejections reported as statuses" rejected rejected_count;
  let st = S.stats server in
  Alcotest.(check int) "stats.submitted" accepted st.S.submitted;
  Alcotest.(check int) "stats.rejected_full" rejected st.S.rejected_full

let test_server_summary_counts () =
  let server, records = collecting_server () in
  let source = decay "1.0" "1.0" in
  ignore (S.submit server { Job.default with Job.id = "ok1"; source });
  ignore
    (S.submit server
       { Job.default with
         Job.id = "boom"; source;
         chaos = Some { Job.kind = `Nan; task = 0; round = 1; count = 64; attempts = 0 } });
  let summary = S.drain server in
  Alcotest.(check (option int)) "jobs" (Some 2) (int_field summary "jobs");
  Alcotest.(check (option int)) "ok" (Some 1) (int_field summary "ok");
  Alcotest.(check (option int)) "failed" (Some 1) (int_field summary "failed");
  let rs = records () in
  Alcotest.(check bool) "summary emitted last" true
    (match List.rev rs with
    | last :: _ -> str_field last "type" = Some "summary"
    | [] -> false)

(* ---------- executor concurrency ---------- *)

let rec wait_for ?(timeout = 30.) what pred =
  if pred () then ()
  else if timeout <= 0. then Alcotest.fail ("timed out waiting for " ^ what)
  else begin
    Unix.sleepf 0.005;
    wait_for ~timeout:(timeout -. 0.005) what pred
  end

let test_clone_scratch_concurrent_execution () =
  (* The regression the per-entry lock used to paper over: two domains
     executing the same compiled artifact.  With per-domain scratch
     clones, every concurrent run must stay bitwise equal to the
     sequential reference. *)
  let r = P.compile_source (decay "1.0" "2.0") in
  let clone = P.clone_scratch r in
  Alcotest.(check bool) "analysis shared physically" true
    (clone.P.model == r.P.model);
  Alcotest.(check bool) "backend scratch is private" true
    (clone.P.compiled != r.P.compiled);
  let final res =
    Array.to_list
      (Om_ode.Odesys.final_state
         (Objectmath.Runtime.execute ~tend:1. res).trajectory)
  in
  let reference = final clone in
  let run () =
    let mine = P.clone_scratch r in
    Array.init 25 (fun _ -> final mine)
  in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let f1 = Domain.join d1 and f2 = Domain.join d2 in
  Array.iter
    (fun f ->
      Alcotest.(check (list (float 0.))) "domain 1 bitwise" reference f)
    f1;
  Array.iter
    (fun f ->
      Alcotest.(check (list (float 0.))) "domain 2 bitwise" reference f)
    f2

let test_cache_compile_off_lock_single_flight () =
  (* Hold a compile open via the on_compile hook: hits on other sources
     must keep flowing (the table mutex is not held across the compile),
     and the two racing lookups of the new source compile it once. *)
  let s_fast = decay "1.0" "1.0" and s_slow = decay "2.0" "3.0" in
  let entered = Atomic.make 0 and release = Atomic.make false in
  let on_compile src =
    if src = s_slow then begin
      Atomic.incr entered;
      while not (Atomic.get release) do
        Unix.sleepf 0.001
      done
    end
  in
  let cache = MC.create ~on_compile ~capacity:4 () in
  (match MC.lookup cache s_fast with
  | `Miss _ -> ()
  | `Hit _ -> Alcotest.fail "cold hit");
  let worker () =
    match MC.lookup cache s_slow with `Miss _ -> `M | `Hit _ -> `H
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  wait_for "slow compile entered" (fun () -> Atomic.get entered >= 1);
  (* Give the losing lookup time to park on the in-flight latch. *)
  Unix.sleepf 0.02;
  (* If lookup held the cache mutex across compilation, this hit would
     deadlock behind the held-open compile instead of returning. *)
  (match MC.lookup cache s_fast with
  | `Hit _ -> ()
  | `Miss _ -> Alcotest.fail "hit blocked or lost during compile");
  Atomic.set release true;
  let o1 = Domain.join d1 and o2 = Domain.join d2 in
  Alcotest.(check bool) "one compiler, one waiter-or-hit" true
    ((o1 = `M && o2 = `H) || (o1 = `H && o2 = `M));
  Alcotest.(check int) "single-flight: slow source compiled once" 1
    (Atomic.get entered);
  let st = MC.stats cache in
  Alcotest.(check int) "two compiles total" 2 st.MC.compiles;
  Alcotest.(check int) "both sources resident" 2 st.MC.entries

let test_server_duplicate_id () =
  (* While a job id is in flight, resubmitting it must not clobber the
     live job's cancel token: the duplicate is refused with an "invalid"
     status and the original completes untouched. *)
  let server, records = collecting_server () in
  let source = decay "1.0" "1.0" in
  let blocker =
    (* ~100k rk4 steps keep the lone executor busy while we submit. *)
    { Job.default with Job.id = "blocker"; source; solver = Job.Rk4 (Some 1e-5) }
  in
  (match S.submit server blocker with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "blocker refused");
  let dup = { Job.default with Job.id = "dup"; source } in
  (match S.submit server dup with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "first dup refused");
  (match S.submit server dup with
  | `Duplicate -> ()
  | `Ok _ -> Alcotest.fail "duplicate id accepted"
  | _ -> Alcotest.fail "duplicate id mis-handled");
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "blocker ok" (Some "ok")
    (status_of rs "blocker");
  let dup_statuses =
    List.sort compare
      (List.filter_map
         (fun (j, st) -> if j = "dup" then Some st else None)
         (statuses rs))
  in
  Alcotest.(check (list string)) "dup: one invalid, one ok"
    [ "invalid"; "ok" ] dup_statuses;
  let st = S.stats server in
  Alcotest.(check int) "two accepted jobs" 2 st.S.submitted;
  Alcotest.(check int) "duplicate is not a rejection" 0
    (st.S.rejected_full + st.S.rejected_quota + st.S.rejected_deadline)

let test_server_drain_idempotent () =
  let server, records = collecting_server () in
  ignore
    (S.submit server { Job.default with Job.id = "j"; source = decay "1.0" "1.0" });
  let s1 = S.drain server in
  let s2 = S.drain server in
  Alcotest.(check string) "second drain returns the same summary"
    (J.to_string s1) (J.to_string s2);
  let summaries rs =
    List.length (List.filter (fun r -> str_field r "type" = Some "summary") rs)
  in
  Alcotest.(check int) "summary emitted once" 1 (summaries (records ()));
  (* Concurrent drains agree and still emit exactly one summary. *)
  let server2, records2 = collecting_server () in
  ignore
    (S.submit server2
       { Job.default with Job.id = "k"; source = decay "1.0" "1.0" });
  let d1 = Domain.spawn (fun () -> S.drain server2)
  and d2 = Domain.spawn (fun () -> S.drain server2) in
  let a = Domain.join d1 and b = Domain.join d2 in
  Alcotest.(check string) "concurrent drains agree" (J.to_string a)
    (J.to_string b);
  Alcotest.(check int) "concurrent drains emit one summary" 1
    (summaries (records2 ()));
  Alcotest.(check (option int)) "summary counted the job" (Some 1)
    (int_field a "jobs")

let test_server_per_job_sink_routing () =
  (* The socket mode's contract: a job's chunks and terminal status go
     to the submitting connection's sink, never to the server-wide emit
     (which keeps only the summary). *)
  let server, records = collecting_server () in
  let make_sink () =
    let l = ref [] and m = Mutex.create () in
    ( (fun r ->
        Mutex.lock m;
        l := r :: !l;
        Mutex.unlock m),
      fun () -> List.rev !l )
  in
  let sink_a, got_a = make_sink () in
  let sink_b, got_b = make_sink () in
  let source = decay "1.0" "2.0" in
  (match
     S.submit ~sink:sink_a server
       { Job.default with Job.id = "a"; source; chunk = 150 }
   with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "submit a failed");
  (match
     S.handle_line ~sink:sink_b server
       (Printf.sprintf {|{"id":"b","source":"%s"}|} source)
   with
  | `Queued id -> Alcotest.(check string) "queued id" "b" id
  | _ -> Alcotest.fail "expected `Queued");
  (match S.handle_line ~sink:sink_b server "not json at all" with
  | `Replied -> ()
  | _ -> Alcotest.fail "expected `Replied for bad JSON");
  ignore (S.drain server);
  let a_rs = got_a () and b_rs = got_b () in
  Alcotest.(check bool) "a got chunks and status" true
    (List.exists (fun r -> str_field r "type" = Some "chunk") a_rs
    && status_of a_rs "a" = Some "ok");
  Alcotest.(check bool) "every record in sink a is job a's" true
    (List.for_all (fun r -> str_field r "job" = Some "a") a_rs);
  Alcotest.(check (option string)) "b ok via its sink" (Some "ok")
    (status_of b_rs "b");
  Alcotest.(check bool) "bad JSON answered on sink b" true
    (List.exists (fun (_, st) -> st = "invalid") (statuses b_rs));
  Alcotest.(check bool) "server-wide emit got no job records" true
    (List.for_all (fun r -> str_field r "type" = Some "summary") (records ()))

let test_server_executors_overlap_same_model () =
  (* The tentpole witness: with two executors and one model, a short job
     finishes while a long job on the same compiled artifact is still
     running.  A per-artifact execution lock would serialise them and
     this test would time out waiting for the short job. *)
  let config = { S.default_config with S.executors = 2 } in
  let server, records = collecting_server ~config () in
  let source = decay "1.0" "2.0" in
  let long =
    (* ~1e8 rk4 steps: effectively runs until cancelled. *)
    { Job.default with Job.id = "long"; source; solver = Job.Rk4 (Some 1e-8) }
  in
  (match S.submit server long with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "long refused");
  wait_for "long job compiled its model" (fun () ->
      (MC.stats (S.cache server)).MC.compiles >= 1);
  (match
     S.submit server { Job.default with Job.id = "short"; source }
   with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "short refused");
  wait_for "short job finished during the long job" (fun () ->
      status_of (records ()) "short" <> None);
  Alcotest.(check (option string)) "short ok while long runs" (Some "ok")
    (status_of (records ()) "short");
  Alcotest.(check (option string)) "long still in flight" None
    (status_of (records ()) "long");
  S.cancel server ~job:"long" ~reason:"overlap witnessed";
  ignore (S.drain server);
  Alcotest.(check (option string)) "long cancelled" (Some "cancelled")
    (status_of (records ()) "long");
  let cs = MC.stats (S.cache server) in
  Alcotest.(check int) "both jobs shared one compile" 1 cs.MC.compiles

let finals_with_executors n =
  let config = { S.default_config with S.executors = n } in
  let server, records = collecting_server ~config () in
  let sources =
    [ decay "1.0" "2.0"; decay "0.5" "1.0"; decay "2.0" "3.0" ]
  in
  List.iteri
    (fun i src ->
      List.iter
        (fun k ->
          match
            S.submit server
              { Job.default with
                Job.id = Printf.sprintf "m%d-%d" i k;
                source = src }
          with
          | `Ok _ -> ()
          | _ -> Alcotest.fail "submit refused")
        [ 0; 1 ])
    sources;
  ignore (S.drain server);
  List.filter_map
    (fun r ->
      match (str_field r "type", str_field r "job", J.member r "final") with
      | Some "status", Some j, Some f -> Some (j, J.to_string f)
      | _ -> None)
    (records ())
  |> List.sort compare

let test_server_bitwise_across_executor_counts () =
  (* Same burst, 1 vs 4 executors: per-job final states must be
     bitwise identical — concurrency must not touch numerics. *)
  let one = finals_with_executors 1 in
  let four = finals_with_executors 4 in
  Alcotest.(check int) "all jobs completed" 6 (List.length one);
  Alcotest.(check (list (pair string string)))
    "finals identical across executor counts" one four

(* ---------- admission control: tenant quotas & deadline ordering ---------- *)

let test_queue_deadline_ordering () =
  (* Within a priority the earliest absolute deadline pops first;
     priority still dominates; no deadline sorts last (infinity). *)
  let q = Q.create ~capacity:8 () in
  List.iter
    (fun (dl, x) ->
      Alcotest.(check bool) "accepted" true
        (Q.submit ~deadline:dl q ~priority:0 x = `Ok))
    [ (5., "b"); (1., "a"); (Float.infinity, "c") ];
  Alcotest.(check bool) "accepted" true (Q.submit q ~priority:1 "p" = `Ok);
  Q.close q;
  let rec drain acc =
    match Q.pop q with Some x -> drain (x :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list string)) "priority, then earliest deadline, then fifo"
    [ "p"; "a"; "b"; "c" ] (drain [])

let test_queue_tenant_queued_quota () =
  let q = Q.create ~max_queued_per_tenant:2 ~capacity:8 () in
  Alcotest.(check bool) "first accepted" true
    (Q.submit ~tenant:"t" q ~priority:0 "a" = `Ok);
  Alcotest.(check bool) "second accepted" true
    (Q.submit ~tenant:"t" q ~priority:0 "b" = `Ok);
  Alcotest.(check bool) "third shed as over-quota" true
    (Q.submit ~tenant:"t" q ~priority:9 "c" = `Rejected_quota);
  Alcotest.(check bool) "other tenant unaffected" true
    (Q.submit ~tenant:"u" q ~priority:0 "d" = `Ok);
  Alcotest.(check bool) "force bypasses the quota" true
    (Q.submit ~tenant:"t" ~force:true q ~priority:0 "e" = `Ok);
  Alcotest.(check int) "tenant t queued" 3 (Q.queued_for q ~tenant:"t");
  (* popping one of t's entries does not open a slot while still at
     quota (force pushed it one over) *)
  Alcotest.(check bool) "pop returns t's oldest" true (Q.pop q = Some "a");
  Alcotest.(check bool) "still at quota after one pop" true
    (Q.submit ~tenant:"t" q ~priority:0 "f" = `Rejected_quota);
  Alcotest.(check bool) "capacity shedding still reported as full" true
    (let q2 = Q.create ~max_queued_per_tenant:8 ~capacity:1 () in
     ignore (Q.submit ~tenant:"t" q2 ~priority:0 "x");
     Q.submit ~tenant:"t" q2 ~priority:0 "y" = `Rejected_full)

let test_queue_tenant_running_quota () =
  let q = Q.create ~max_running_per_tenant:1 ~capacity:8 () in
  Alcotest.(check bool) "accepted" true
    (Q.submit ~tenant:"t" q ~priority:5 "t1" = `Ok);
  Alcotest.(check bool) "accepted" true
    (Q.submit ~tenant:"t" q ~priority:5 "t2" = `Ok);
  Alcotest.(check bool) "accepted" true
    (Q.submit ~tenant:"u" q ~priority:0 "u1" = `Ok);
  Alcotest.(check bool) "best entry pops first" true (Q.pop q = Some "t1");
  (* t is saturated: its higher-priority t2 is skipped for u's job *)
  Alcotest.(check bool) "saturated tenant skipped for next-best" true
    (Q.pop q = Some "u1");
  Alcotest.(check int) "t running" 1 (Q.running_for q ~tenant:"t");
  Q.finished q ~tenant:"u";
  (* only t2 remains and t still holds its running slot: a consumer
     must block until [finished] releases it *)
  let popped = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set popped (Some (Q.pop q))) in
  Unix.sleepf 0.05;
  Alcotest.(check bool) "pop blocks while tenant saturated" true
    (Atomic.get popped = None);
  Q.finished q ~tenant:"t";
  wait_for "blocked pop released by finished" (fun () ->
      Atomic.get popped <> None);
  Domain.join d;
  Alcotest.(check bool) "released pop yields the skipped job" true
    (Atomic.get popped = Some (Some "t2"))

let test_server_tenant_quota () =
  (* One executor pinned by a long job; tenant t1 may queue one more.
     Its second queued job sheds as rejected_quota while tenant t2
     still gets in. *)
  let config = { S.default_config with S.max_queued_per_tenant = 1 } in
  let server, records = collecting_server ~config () in
  let source = decay "1.0" "2.0" in
  let long =
    { Job.default with
      Job.id = "long"; tenant = "t1"; source; solver = Job.Rk4 (Some 1e-8) }
  in
  (match S.submit server long with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "long refused");
  wait_for "executor picked up the long job" (fun () ->
      (MC.stats (S.cache server)).MC.compiles >= 1);
  (match
     S.submit server { Job.default with Job.id = "q1"; tenant = "t1"; source }
   with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "q1 refused");
  (match
     S.submit server { Job.default with Job.id = "q2"; tenant = "t1"; source }
   with
  | `Rejected status ->
      Alcotest.(check string) "tenant-quota shed status" "rejected_quota"
        status
  | _ -> Alcotest.fail "expected q2 shed over tenant quota");
  (match
     S.submit server { Job.default with Job.id = "q3"; tenant = "t2"; source }
   with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "other tenant must be unaffected");
  S.cancel server ~job:"long" ~reason:"quota witnessed";
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "q1 completed" (Some "ok")
    (status_of rs "q1");
  Alcotest.(check (option string)) "q2 shed" (Some "rejected_quota")
    (status_of rs "q2");
  Alcotest.(check (option string)) "q3 completed" (Some "ok")
    (status_of rs "q3");
  Alcotest.(check int) "stats.rejected_quota" 1
    (S.stats server).S.rejected_quota

let test_server_deadline_shed () =
  (* An absurd deadline margin makes any model with a recorded run-time
     estimate miss any finite deadline: the second job for the same
     model sheds before entering the queue.  Models without an estimate
     are never shed (no data, no prediction). *)
  let config = { S.default_config with S.deadline_margin = 1e12 } in
  let server, records = collecting_server ~config () in
  let source = decay "1.0" "2.0" in
  ignore (S.submit server { Job.default with Job.id = "warm"; source });
  wait_for "warm job recorded a run-time estimate" (fun () ->
      status_of (records ()) "warm" <> None);
  (match
     S.submit server
       { Job.default with Job.id = "doomed"; source; deadline_s = 0.5 }
   with
  | `Rejected status ->
      Alcotest.(check string) "deadline shed status" "rejected_deadline"
        status
  | _ -> Alcotest.fail "expected the doomed job shed");
  (match
     S.submit server
       { Job.default with
         Job.id = "nodl"; source (* no deadline: margin never applies *) }
   with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "deadline-free job must not be shed");
  (match
     S.submit server
       { Job.default with
         Job.id = "unseen"; source = decay "2.0" "1.0"; deadline_s = 0.5 }
   with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "unseen model must not be shed");
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "doomed shed" (Some "rejected_deadline")
    (status_of rs "doomed");
  Alcotest.(check (option string)) "deadline-free ran" (Some "ok")
    (status_of rs "nodl");
  Alcotest.(check int) "stats.rejected_deadline" 1
    (S.stats server).S.rejected_deadline

(* ---------- write-ahead journal ---------- *)

let tmp_journal () =
  let path = Filename.temp_file "om_serve_test" ".journal" in
  Sys.remove path;
  path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_journal f =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let jspec id = { Job.default with Job.id = id; source = decay "1.0" "2.0" }

let test_journal_replay_roundtrip () =
  with_journal (fun path ->
      Alcotest.(check bool) "missing file replays empty" true
        (match Jr.replay path with
        | Ok r -> r.Jr.pending = [] && r.Jr.accepted = 0 && not r.Jr.torn_tail
        | Error _ -> false);
      let j = Jr.open_append path in
      let s1 = jspec "j1" and s2 = jspec "j2" and s3 = jspec "j3" in
      ignore (Jr.record_accept j s1);
      ignore (Jr.record_accept j s2);
      let seq3 = Jr.record_accept j s3 in
      Alcotest.(check int) "sequence numbers are monotonic" 3 seq3;
      Jr.record_state j ~id:"j1" ~attempt:1 "running";
      Jr.record_state j ~id:"j1" ~status:"ok" "done";
      Jr.record_state j ~id:"j2" ~attempt:1 "running";
      Jr.record_state j ~id:"j2" ~attempt:1 ~delay_s:0.05 "retrying";
      Jr.await_durable j seq3;
      Jr.close j;
      match Jr.replay path with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check int) "accepted" 3 r.Jr.accepted;
          Alcotest.(check int) "completed" 1 r.Jr.completed;
          Alcotest.(check int) "failed" 0 r.Jr.failed;
          Alcotest.(check bool) "no torn tail" false r.Jr.torn_tail;
          (* retrying j2 and untouched j3 are pending, in accept order,
             with their full specs reconstructed bit-for-bit *)
          Alcotest.(check bool) "pending specs reconstructed" true
            (r.Jr.pending = [ s2; s3 ]))

let test_journal_torn_tail_ignored () =
  (* A crash mid-append leaves a final line without the newline: replay
     must ignore exactly that fragment and keep everything before it. *)
  with_journal (fun path ->
      let j = Jr.open_append path in
      ignore (Jr.record_accept j (jspec "keep"));
      Jr.close j;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc {|{"rec":"accept","job":{"id":"to|};
      close_out oc;
      (match Jr.replay path with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check bool) "torn tail flagged" true r.Jr.torn_tail;
          Alcotest.(check int) "fragment not counted" 1 r.Jr.accepted;
          Alcotest.(check bool) "intact job still pending" true
            (match r.Jr.pending with
            | [ s ] -> s.Job.id = "keep"
            | _ -> false));
      (* re-opening for append after a torn tail starts a fresh line:
         the journal self-heals on the next record *)
      let j2 = Jr.open_append path in
      ignore (Jr.record_accept j2 (jspec "after"));
      Jr.close j2;
      match Jr.replay path with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check int) "healed journal counts both" 2 r.Jr.accepted)

let test_journal_malformed_rejected () =
  (* Unlike a torn tail, a complete-but-corrupt line anywhere is a real
     integrity failure: replay refuses rather than silently dropping
     jobs. *)
  let expect_error what lines =
    with_journal (fun path ->
        let oc = open_out_bin path in
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        close_out oc;
        match Jr.replay path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail (what ^ ": expected replay to refuse"))
  in
  let accept =
    J.to_string (J.Obj [ ("rec", J.Str "accept"); ("job", Job.to_json (jspec "a")) ])
  in
  expect_error "garbage line" [ accept; "not json at all" ];
  expect_error "unknown record kind" [ accept; {|{"rec":"mystery"}|} ];
  expect_error "state for unaccepted id"
    [ accept; {|{"rec":"state","id":"ghost","state":"done"}|} ];
  expect_error "accept without a job" [ {|{"rec":"accept"}|} ]

let test_server_journal_lifecycle () =
  (* A journaled run writes accept → running → done for a clean job and
     accept → running → retrying → requeued → running → done for a
     flaky one; replay after drain finds nothing pending. *)
  with_journal (fun path ->
      let journal = Jr.open_append path in
      let config = { S.default_config with S.retry_backoff_s = 0. } in
      let server, records = collecting_server ~config ~journal () in
      let source = decay "1.0" "2.0" in
      ignore (S.submit server { Job.default with Job.id = "clean"; source });
      ignore
        (S.submit server
           { Job.default with
             Job.id = "flaky"; source; retries = 1;
             chaos =
               Some { Job.kind = `Nan; task = 0; round = 1; count = 64; attempts = 1 } });
      ignore (S.drain server);
      let rs = records () in
      Alcotest.(check (option string)) "clean ok" (Some "ok")
        (status_of rs "clean");
      Alcotest.(check (option string)) "flaky converged" (Some "ok")
        (status_of rs "flaky");
      (match Jr.replay path with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check int) "both accepted" 2 r.Jr.accepted;
          Alcotest.(check int) "both completed" 2 r.Jr.completed;
          Alcotest.(check bool) "nothing pending after drain" true
            (r.Jr.pending = []));
      let raw = read_file path in
      let has s =
        let n = String.length s and m = String.length raw in
        let rec scan i = i + n <= m && (String.sub raw i n = s || scan (i + 1)) in
        scan 0
      in
      List.iter
        (fun (what, fragment) ->
          Alcotest.(check bool) what true (has fragment))
        [
          ("retry transition journaled", {|"state":"retrying"|});
          ("re-enqueue journaled", {|"state":"requeued"|});
          ("second attempt journaled", {|"attempt":2|});
          ("terminal status journaled", {|"status":"ok"|});
        ])

let test_server_crash_recovery_bitwise () =
  (* The recovery contract end to end: a journal holding an accept with
     no terminal is replayed into a fresh server, runs exactly once and
     streams the same bytes a clean run streams. *)
  let spec = { (jspec "r1") with Job.chunk = 150 } in
  let job_records rs =
    List.filter_map
      (fun r ->
        match (str_field r "type", str_field r "job") with
        | Some ("chunk" | "status"), Some "r1" -> Some (J.to_string r)
        | _ -> None)
      rs
  in
  (* clean reference run, no journal *)
  let clean_server, clean_records = collecting_server () in
  ignore (S.submit clean_server spec);
  ignore (S.drain clean_server);
  let reference = job_records (clean_records ()) in
  Alcotest.(check int) "reference streamed chunks and a status" 4
    (List.length reference);
  with_journal (fun path ->
      (* simulate the crash: accept journaled, process died before any
         state transition *)
      let j = Jr.open_append path in
      ignore (Jr.record_accept j spec);
      Jr.close j;
      let replay =
        match Jr.replay path with Ok r -> r | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "crashed job pending" true
        (replay.Jr.pending = [ spec ]);
      (* restart: same journal file, recover, drain *)
      let journal = Jr.open_append path in
      let server, records = collecting_server ~journal () in
      Alcotest.(check int) "one job recovered" 1 (S.recover server replay);
      ignore (S.drain server);
      let rs = records () in
      Alcotest.(check (option string)) "recovered job completed" (Some "ok")
        (status_of rs "r1");
      Alcotest.(check int) "exactly one terminal status" 1
        (List.length (List.filter (fun (id, _) -> id = "r1") (statuses rs)));
      Alcotest.(check (list string)) "recovered stream bitwise equal"
        reference (job_records rs);
      Alcotest.(check int) "stats.recovered" 1 (S.stats server).S.recovered;
      (* a second replay of the same journal finds nothing to redo *)
      match Jr.replay path with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check bool) "journal now complete" true
            (r.Jr.pending = [] && r.Jr.completed = 1 && r.Jr.accepted = 1))

(* ---------- retry / backoff ---------- *)

let retry_config = { S.default_config with S.retry_backoff_s = 0. }

let test_server_retry_converges_bitwise () =
  (* Chaos on attempt 1 only: the retry runs clean, the job converges
     to ok on attempt 2 and its final state matches an undisturbed
     run of the same model bit for bit. *)
  let server, records = collecting_server ~config:retry_config () in
  let source = decay "1.0" "2.0" in
  ignore
    (S.submit server
       { Job.default with
         Job.id = "flaky"; source; retries = 1;
         chaos =
           Some { Job.kind = `Nan; task = 0; round = 1; count = 64; attempts = 1 } });
  ignore (S.submit server { Job.default with Job.id = "witness"; source });
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "flaky converged" (Some "ok")
    (status_of rs "flaky");
  let flaky = status_record rs "flaky" in
  Alcotest.(check (option int)) "succeeded on attempt 2" (Some 2)
    (int_field flaky "attempts");
  let retries =
    List.filter (fun r -> str_field r "type" = Some "retry") rs
  in
  Alcotest.(check int) "one retry record emitted" 1 (List.length retries);
  (match retries with
  | [ r ] ->
      Alcotest.(check (option string)) "retry names the job" (Some "flaky")
        (str_field r "job");
      Alcotest.(check (option int)) "retry names the attempt" (Some 1)
        (int_field r "attempt")
  | _ -> ());
  Alcotest.(check bool) "retried final bitwise equals clean final" true
    (J.member flaky "final" = J.member (status_record rs "witness") "final");
  Alcotest.(check bool) "witness has no attempts field" true
    (int_field (status_record rs "witness") "attempts" = None);
  Alcotest.(check int) "stats.retried" 1 (S.stats server).S.retried

let test_server_retry_budget_exhausted () =
  (* Chaos on every attempt: retries stop at the budget, the job fails
     terminally with the full attempt count on record. *)
  let server, records = collecting_server ~config:retry_config () in
  let source = decay "1.0" "1.0" in
  ignore
    (S.submit server
       { Job.default with
         Job.id = "doomed"; source; retries = 2;
         chaos =
           Some { Job.kind = `Nan; task = 0; round = 1; count = 64; attempts = 0 } });
  (* a model error is not transient: never retried whatever the budget *)
  ignore
    (S.submit server
       { Job.default with Job.id = "bad"; source = "not a model"; retries = 3 });
  ignore (S.drain server);
  let rs = records () in
  Alcotest.(check (option string)) "budget exhausted fails terminally"
    (Some "solver_failure")
    (status_of rs "doomed");
  Alcotest.(check (option int)) "all three attempts on record" (Some 3)
    (int_field (status_record rs "doomed") "attempts");
  Alcotest.(check int) "exactly one terminal status" 1
    (List.length (List.filter (fun (id, _) -> id = "doomed") (statuses rs)));
  Alcotest.(check (option string)) "model error terminal immediately"
    (Some "model_error")
    (status_of rs "bad");
  Alcotest.(check bool) "model error never retried" true
    (int_field (status_record rs "bad") "attempts" = None);
  Alcotest.(check int) "stats.retried counts both transitions" 2
    (S.stats server).S.retried

(* ---------- result cache ---------- *)

let test_result_cache_unit () =
  (* LRU over abstract values, plus the key discipline: float inputs
     enter the key as IEEE bit patterns, so nearby-but-distinct values
     never collide. *)
  let c = RC.create 2 in
  let k1 = RC.key ~source_key:"s" ~solver:(Job.Rk4 (Some 0.1)) ~tend:1.0 in
  let k2 =
    RC.key ~source_key:"s" ~solver:(Job.Rk4 (Some 0.1000000000000001)) ~tend:1.0
  in
  let k3 = RC.key ~source_key:"s" ~solver:Job.Rkf45 ~tend:1.0 in
  Alcotest.(check bool) "nearby step sizes get distinct keys" true (k1 <> k2);
  Alcotest.(check bool) "solvers get distinct keys" true (k1 <> k3);
  Alcotest.(check string) "keys are deterministic" k1
    (RC.key ~source_key:"s" ~solver:(Job.Rk4 (Some 0.1)) ~tend:1.0);
  RC.store c k1 1;
  RC.store c k2 2;
  Alcotest.(check (option int)) "hit" (Some 1) (RC.lookup c k1);
  RC.store c k3 3 (* k2 is now least-recent: evicted *);
  Alcotest.(check (option int)) "evicted" None (RC.lookup c k2);
  Alcotest.(check (option int)) "survivor" (Some 1) (RC.lookup c k1);
  let hits, misses, entries = RC.stats c in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 1 misses;
  Alcotest.(check int) "entries" 2 entries;
  (* capacity 0 disables without counting *)
  let off = RC.create 0 in
  RC.store off k1 1;
  Alcotest.(check (option int)) "disabled never hits" None (RC.lookup off k1);
  Alcotest.(check bool) "disabled counts nothing" true
    (RC.stats off = (0, 0, 0))

let test_server_result_cache_hit_bitwise () =
  (* Two identical jobs: the second is answered from the result cache —
     witnessed by the status field and the hit counter — and streams
     exactly the bytes the first streamed.  A different tend misses. *)
  let config = { S.default_config with S.result_cache_capacity = 4 } in
  let server, records = collecting_server ~config () in
  let source = decay "1.0" "2.0" in
  let mk id = { Job.default with Job.id = id; source; chunk = 150 } in
  ignore (S.submit server (mk "c1"));
  ignore (S.drain server);
  let rs1 = records () in
  Alcotest.(check (option string)) "first computed" (Some "ok")
    (status_of rs1 "c1");
  Alcotest.(check bool) "first is not a cache hit" true
    (str_field (status_record rs1 "c1") "result_cache" = None);
  let server2, records2 = collecting_server ~config () in
  ignore (S.submit server2 (mk "c1"));
  ignore (S.submit server2 (mk "c2"));
  ignore (S.submit server2 { (mk "c3") with Job.tend = 0.5 });
  ignore (S.drain server2);
  let rs = records2 () in
  List.iter
    (fun id ->
      Alcotest.(check (option string)) (id ^ " ok") (Some "ok")
        (status_of rs id))
    [ "c1"; "c2"; "c3" ];
  Alcotest.(check (option string)) "second job answered from cache"
    (Some "hit")
    (str_field (status_record rs "c2") "result_cache");
  Alcotest.(check bool) "different tend misses" true
    (str_field (status_record rs "c3") "result_cache" = None);
  let hits, misses, entries = S.result_cache_stats server2 in
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "two misses" 2 misses;
  Alcotest.(check int) "two entries" 2 entries;
  let stream id =
    List.filter_map
      (fun r ->
        match (str_field r "type", str_field r "job") with
        | Some "chunk", Some j when j = id ->
            Option.map J.to_string (J.member r "rows")
        | Some "status", Some j when j = id ->
            Option.map J.to_string (J.member r "final")
        | _ -> None)
      rs
  in
  Alcotest.(check (list string)) "hit streams the computed bytes"
    (stream "c1") (stream "c2")

let () =
  Alcotest.run "om_serve"
    [
      ( "stiff path",
        [
          Alcotest.test_case "one stiff trajectory" `Quick
            test_one_stiff_trajectory;
          Alcotest.test_case "no Jacobian call derives none" `Quick
            test_no_jacobian_call_derives_none;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float printing" `Quick test_json_floats;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
        ] );
      ( "job",
        [
          Alcotest.test_case "defaults" `Quick test_job_defaults;
          Alcotest.test_case "decode errors" `Quick test_job_decode_errors;
          Alcotest.test_case "chaos plan" `Quick test_job_chaos_plan;
        ] );
      ( "queue",
        [
          Alcotest.test_case "priority order" `Quick test_queue_priority_order;
          Alcotest.test_case "bounded rejection" `Quick
            test_queue_bounded_rejection;
          Alcotest.test_case "close semantics" `Quick test_queue_close;
          Alcotest.test_case "concurrent consumers" `Quick
            test_queue_concurrent_consumers;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit skips compile, bitwise identical" `Quick
            test_cache_hit_skips_compile_bitwise;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "capacity zero" `Quick
            test_cache_capacity_zero_never_stores;
        ] );
      ( "server",
        [
          Alcotest.test_case "tenants share artifact, no leakage" `Quick
            test_server_tenants_share_artifact_no_leakage;
          Alcotest.test_case "chaos fails job not server" `Quick
            test_server_chaos_fails_job_not_server;
          Alcotest.test_case "chaos recovers bitwise" `Quick
            test_server_chaos_recovers_bitwise;
          Alcotest.test_case "deadline exceeded" `Quick
            test_server_deadline_exceeded;
          Alcotest.test_case "cancel" `Quick test_server_cancel;
          Alcotest.test_case "model error and invalid" `Quick
            test_server_model_error_and_invalid;
          Alcotest.test_case "sequential job builds no back end" `Quick
            test_server_sequential_job_builds_no_back_end;
          Alcotest.test_case "model errors on the miss" `Quick
            test_server_model_errors_on_miss;
          Alcotest.test_case "chunk stream" `Quick test_server_chunk_stream;
          Alcotest.test_case "overload rejection" `Quick
            test_server_rejection_overload;
          Alcotest.test_case "summary counts" `Quick
            test_server_summary_counts;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "clone_scratch concurrent execution" `Quick
            test_clone_scratch_concurrent_execution;
          Alcotest.test_case "compile off-lock, single-flight" `Quick
            test_cache_compile_off_lock_single_flight;
          Alcotest.test_case "duplicate in-flight id refused" `Quick
            test_server_duplicate_id;
          Alcotest.test_case "drain idempotent" `Quick
            test_server_drain_idempotent;
          Alcotest.test_case "per-job sink routing" `Quick
            test_server_per_job_sink_routing;
          Alcotest.test_case "two executors overlap on one model" `Quick
            test_server_executors_overlap_same_model;
          Alcotest.test_case "bitwise identity across executor counts" `Quick
            test_server_bitwise_across_executor_counts;
        ] );
      ( "admission",
        [
          Alcotest.test_case "deadline ordering" `Quick
            test_queue_deadline_ordering;
          Alcotest.test_case "tenant queued quota" `Quick
            test_queue_tenant_queued_quota;
          Alcotest.test_case "tenant running quota" `Quick
            test_queue_tenant_running_quota;
          Alcotest.test_case "server tenant quota" `Quick
            test_server_tenant_quota;
          Alcotest.test_case "deadline-aware shedding" `Quick
            test_server_deadline_shed;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay roundtrip" `Quick
            test_journal_replay_roundtrip;
          Alcotest.test_case "torn tail ignored" `Quick
            test_journal_torn_tail_ignored;
          Alcotest.test_case "malformed rejected" `Quick
            test_journal_malformed_rejected;
          Alcotest.test_case "journaled server lifecycle" `Quick
            test_server_journal_lifecycle;
          Alcotest.test_case "crash recovery bitwise" `Quick
            test_server_crash_recovery_bitwise;
        ] );
      ( "retry",
        [
          Alcotest.test_case "converges bitwise" `Quick
            test_server_retry_converges_bitwise;
          Alcotest.test_case "budget exhausted" `Quick
            test_server_retry_budget_exhausted;
        ] );
      ( "results",
        [
          Alcotest.test_case "lru and key discipline" `Quick
            test_result_cache_unit;
          Alcotest.test_case "hit bitwise, counters" `Quick
            test_server_result_cache_hit_bitwise;
        ] );
    ]
