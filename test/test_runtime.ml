(* Tests for the parallel-execution runtime: simulated machine time,
   #RHS-calls/s accounting, scheduling strategies, and the invariance of
   the numerical results under scheduling choices. *)

module R = Objectmath.Runtime
module Machine = Om_machine.Machine
module Sup = Om_machine.Supervisor
module P = Om_codegen.Pipeline
module Fm = Om_lang.Flat_model

let servo = lazy (P.compile (Om_models.Servo.model ()))
let bearing = lazy (P.compile (Om_models.Bearing2d.model ()))

let config ?(machine = Machine.sparccenter_2000) ?(nworkers = 1)
    ?(strategy = Sup.Broadcast_state) ?(scheduling = R.Static)
    ?(topology = R.Flat) ?(execution = R.Simulated) () =
  {
    R.default_config with
    R.machine;
    nworkers;
    strategy;
    scheduling;
    topology;
    execution;
  }

let test_report_basics () =
  let r = Lazy.force servo in
  let rep = R.execute ~config:(config ()) ~tend:1. r in
  Alcotest.(check bool) "rhs calls" true (rep.rhs_calls > 0);
  Alcotest.(check bool) "sim time positive" true (rep.sim_seconds > 0.);
  Alcotest.(check bool) "rate consistent" true
    (Float.abs
       (rep.rhs_calls_per_sec -. (float_of_int rep.rhs_calls /. rep.sim_seconds))
    < 1e-6 *. rep.rhs_calls_per_sec);
  Alcotest.(check int) "static never reschedules" 0 rep.reschedules

let test_trajectory_independent_of_scheduling () =
  (* Scheduling affects simulated time, never numerics. *)
  let r = Lazy.force servo in
  let t1 = (R.execute ~config:(config ~nworkers:1 ()) ~tend:1. r).trajectory in
  let t2 = (R.execute ~config:(config ~nworkers:7 ()) ~tend:1. r).trajectory in
  let t3 =
    (R.execute ~config:(config ~scheduling:(R.Semidynamic 5) ()) ~tend:1. r)
      .trajectory
  in
  let same a b =
    Array.for_all2 (fun x y -> x = y) (Om_ode.Odesys.final_state a)
      (Om_ode.Odesys.final_state b)
  in
  Alcotest.(check bool) "1 vs 7 workers" true (same t1 t2);
  Alcotest.(check bool) "static vs semidynamic" true (same t1 t3)

let test_local_execution_faster_than_one_worker () =
  (* Shipping everything to a single worker only adds communication. *)
  let r = Lazy.force bearing in
  let local = R.round_seconds ~config:(config ~nworkers:0 ()) r in
  let one = R.round_seconds ~config:(config ~nworkers:1 ()) r in
  Alcotest.(check bool) "comm overhead visible" true (local < one)

let test_speedup_on_low_latency_machine () =
  let r = Lazy.force bearing in
  let s4 = R.speedup ~machine:Machine.sparccenter_2000 ~nworkers:4 r in
  let s7 = R.speedup ~machine:Machine.sparccenter_2000 ~nworkers:7 r in
  Alcotest.(check bool) "4 workers give real speedup" true (s4 > 2.);
  Alcotest.(check bool) "7 beats 4" true (s7 > s4)

let test_high_latency_machine_peaks () =
  (* On the Parsytec, speedup must collapse for large worker counts
     relative to its own peak (paper Figure 12). *)
  let r = Lazy.force bearing in
  let speedups =
    List.map
      (fun w -> R.speedup ~machine:Machine.parsytec_gcpp ~nworkers:w r)
      [ 1; 2; 4; 8; 16; 32 ]
  in
  let peak = List.fold_left Float.max 0. speedups in
  let last = List.nth speedups 5 in
  Alcotest.(check bool) "peak above 1" true (peak > 1.);
  Alcotest.(check bool) "declines past peak" true (last < peak)

let test_timeshared_knee () =
  let r = Lazy.force bearing in
  let s7 = R.speedup ~machine:Machine.sparccenter_2000 ~nworkers:7 r in
  let s12 = R.speedup ~machine:Machine.sparccenter_2000 ~nworkers:12 r in
  Alcotest.(check bool) "knee at the machine size" true (s12 <= s7 +. 0.2)

let test_needed_only_not_slower () =
  let r = Lazy.force bearing in
  let b =
    R.round_seconds ~config:(config ~machine:Machine.parsytec_gcpp ~nworkers:4 ()) r
  in
  let n =
    R.round_seconds
      ~config:
        (config ~machine:Machine.parsytec_gcpp ~nworkers:4
           ~strategy:Sup.Needed_only ())
      r
  in
  Alcotest.(check bool) "needed-only at least as fast" true (n <= b +. 1e-12)

let test_needed_only_same_numerics () =
  let r = Lazy.force servo in
  let run strategy =
    Om_ode.Odesys.final_state
      (R.execute ~config:(config ~nworkers:4 ~strategy ()) ~solver:(R.Rk4 0.01)
         ~tend:0.5 r)
        .trajectory
  in
  Alcotest.(check bool) "identical states" true
    (run Sup.Broadcast_state = run Sup.Needed_only)

let test_semidynamic_reschedules_and_overhead () =
  let r = Lazy.force bearing in
  let rep =
    R.execute
      ~config:(config ~nworkers:4 ~scheduling:(R.Semidynamic 10) ())
      ~solver:(R.Rk4 1e-5) ~tend:1e-3 r
  in
  Alcotest.(check bool) "rescheduled" true (rep.reschedules > 0);
  Alcotest.(check bool) "overhead accounted" true
    (rep.sched_overhead_seconds > 0.);
  (* Paper §3.2.3: semi-dynamic LPT consumes less than 1% of execution
     time. *)
  Alcotest.(check bool) "overhead below 1%" true
    (rep.sched_overhead_seconds < 0.01 *. rep.sim_seconds)

let test_worker_utilization () =
  let r = Lazy.force bearing in
  let util w =
    (R.execute ~config:(config ~nworkers:w ()) ~solver:(R.Rk4 1e-4)
       ~tend:5e-4 r)
      .worker_utilization
  in
  let u1 = util 1 and u7 = util 7 in
  Alcotest.(check bool) "bounded" true (u1 > 0. && u1 <= 1.0 +. 1e-9);
  Alcotest.(check bool) "fewer workers busier" true (u1 > u7)

let test_rhs_calls_match_solver () =
  let r = Lazy.force servo in
  let rep = R.execute ~config:(config ()) ~solver:(R.Rk4 0.01) ~tend:1. r in
  (* RK4: exactly 4 RHS calls per step, 100 steps. *)
  Alcotest.(check int) "4 calls per step" 400 rep.rhs_calls

let test_solvers_run () =
  let r = Lazy.force servo in
  List.iter
    (fun solver ->
      let rep = R.execute ~config:(config ()) ~solver ~tend:0.5 r in
      Alcotest.(check bool) "finite state" true
        (Array.for_all Float.is_finite
           (Om_ode.Odesys.final_state rep.trajectory)))
    [ R.Rk4 0.005; R.Rkf45; R.Lsoda ]

let test_tree_topology_runtime () =
  (* Tree scatter/gather through the runtime: same numerics, different
     simulated time; on a large low-latency machine with many workers the
     tree must win. *)
  let r = P.compile (Om_models.Bearing_scaled.model ~n_rollers:20 ~profile_order:10 ()) in
  let m = Machine.t3d_class_mpp in
  let flat =
    R.round_seconds ~config:(config ~machine:m ~nworkers:63 ()) r
  in
  let tree =
    R.round_seconds
      ~config:(config ~machine:m ~nworkers:63 ~topology:(R.Tree 2) ())
      r
  in
  Alcotest.(check bool) "tree faster at 63 workers" true (tree < flat);
  (* Numerics identical regardless of topology. *)
  let t1 =
    (R.execute ~config:(config ~nworkers:8 ()) ~solver:(R.Rk4 1e-4)
       ~tend:4e-4 r)
      .trajectory
  in
  let t2 =
    (R.execute
       ~config:(config ~nworkers:8 ~topology:(R.Tree 4) ())
       ~solver:(R.Rk4 1e-4) ~tend:4e-4 r)
      .trajectory
  in
  Alcotest.(check bool) "same numerics" true
    (Om_ode.Odesys.final_state t1 = Om_ode.Odesys.final_state t2)

let test_sweep_monotone () =
  let source =
    {|model M; class C parameter k = 1.0; variable x init 1.0;
      equation der(x) = 0.0 - k * x; end; instance c of C;|}
  in
  let points =
    Objectmath.Sweep.run ~source ~cls:"C" ~param:"k"
      ~values:[ 0.5; 1.; 2.; 4. ] ~tend:1.
      ~states:[| "c.x" |]
      ()
  in
  (* Final value of exp(-k) is decreasing in k, and matches analytically. *)
  List.iter
    (fun (p : Objectmath.Sweep.point) ->
      Alcotest.(check (float 1e-3))
        (Printf.sprintf "exp(-%g)" p.value)
        (Float.exp (Float.neg p.value))
        p.finals.(0))
    points;
  let metrics = List.map (fun (p : Objectmath.Sweep.point) -> p.finals.(0)) points in
  Alcotest.(check bool) "decreasing" true
    (List.sort (fun a b -> compare b a) metrics = metrics)

let test_sweep_series () =
  let points =
    [
      {
        Objectmath.Sweep.value = 1.;
        finals = [| 2.; 3. |];
        steps = 0;
        rhs_calls = 0;
      };
    ]
  in
  let s = Objectmath.Sweep.to_series "m" 1 points in
  Alcotest.(check bool) "series" true (s.points = [ (1., 3.) ])

let test_odesys_of_source () =
  let fm, sys =
    Objectmath.odesys_of_source
      {|model M; class C variable x init 2.0; equation der(x) = 0.0 - x; end;
        instance c of C;|}
  in
  Alcotest.(check int) "dim" 1 sys.dim;
  let tr = Om_ode.Rk.rkf45 sys ~t0:0. ~y0:(Fm.initial_values fm) ~tend:1. in
  Alcotest.(check (float 1e-4)) "2 exp(-1)" (2. *. Float.exp (-1.))
    (Om_ode.Odesys.final_state tr).(0)

let test_odesys_of_result () =
  let r = Lazy.force servo in
  let sys = Objectmath.odesys_of_result r in
  let y0 = Fm.initial_values r.model in
  let tr = Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 sys ~t0:0. ~y0 ~tend:0.1 ~h:0.01 in
  Alcotest.(check bool) "integrates" true
    (Array.for_all Float.is_finite (Om_ode.Odesys.final_state tr))

(* ---------- chaos: faults, recovery, degradation ---------- *)

let test_simulated_chaos_bitwise_recovery () =
  (* A seeded NaN/Inf poisoned into one simulated round must be caught
     by the guard, retried away, and leave the trajectory bitwise
     identical to the fault-free run — with the injection and the retry
     visible in the report. *)
  let r = Lazy.force servo in
  let tend = 0.05 in
  let solver = R.Rk4 (tend /. 10.) in
  let clean = R.execute ~config:(config ~nworkers:2 ()) ~solver ~tend r in
  Alcotest.(check int) "clean run: no faults" 0 clean.faults_injected;
  Alcotest.(check int) "clean run: no retries" 0 clean.retries;
  Alcotest.(check bool) "clean run: no degradations" true
    (clean.degradations = []);
  List.iter
    (fun fault ->
      let plan = Om_guard.Fault_plan.make [ fault ] in
      let cfg =
        { (config ~nworkers:2 ()) with R.faults = Some plan }
      in
      let rep = R.execute ~config:cfg ~solver ~tend r in
      Alcotest.(check int) "fault injected" 1 rep.faults_injected;
      Alcotest.(check bool) "solver retried" true (rep.retries >= 1);
      Alcotest.(check bool) "times identical" true
        (rep.trajectory.ts = clean.trajectory.ts);
      Alcotest.(check bool) "states identical" true
        (rep.trajectory.states = clean.trajectory.states))
    [
      Om_guard.Fault_plan.Nan_task { task = 0; round = 5 };
      Om_guard.Fault_plan.Inf_task { task = 1; round = 9 };
    ]

let test_simulated_guard_stops_blowup () =
  (* Genuinely divergent dynamics exhaust the retry budget and surface
     as a typed step failure instead of a NaN-filled trajectory. *)
  let f = Om_lang.Flatten.flatten_string
      "model Blowup; class B variable x init 1.0; equation der(x) = x * x; \
       end; instance b of B;"
  in
  let r = P.compile f in
  match R.execute ~config:(config ()) ~solver:(R.Rk4 0.05) ~tend:2. r with
  | _ -> Alcotest.fail "blowup not detected"
  | exception Om_guard.Om_error.(Error (Step_failure { reason; _ })) ->
      Alcotest.(check bool) "equation attributed" true
        (let sub = "der(b.x)" in
         let n = String.length reason and m = String.length sub in
         let rec go i =
           i + m <= n && (String.sub reason i m = sub || go (i + 1))
         in
         go 0)

let test_no_guard_config_disables_detection () =
  (* With the guard off and no faults, execution still works (the knob
     exists for overhead measurements). *)
  let r = Lazy.force servo in
  let cfg = { (config ~nworkers:2 ()) with R.guard = false } in
  let rep = R.execute ~config:cfg ~solver:(R.Rk4 5e-3) ~tend:0.05 r in
  Alcotest.(check bool) "finite result" true
    (Array.for_all Float.is_finite (Om_ode.Odesys.final_state rep.trajectory))

let test_real_domains_chaos_bitwise_recovery () =
  let r = Lazy.force servo in
  let tend = 1e-4 in
  let solver = R.Rk4 (tend /. 10.) in
  let clean =
    R.execute ~config:(config ~execution:(R.Real_domains 2) ()) ~solver ~tend
      r
  in
  let plan =
    Om_guard.Fault_plan.make
      [ Om_guard.Fault_plan.Nan_task { task = 0; round = 3 } ]
  in
  let cfg =
    { (config ~execution:(R.Real_domains 2) ()) with R.faults = Some plan }
  in
  let rep = R.execute ~config:cfg ~solver ~tend r in
  Alcotest.(check int) "fault injected" 1 rep.faults_injected;
  Alcotest.(check bool) "solver retried" true (rep.retries >= 1);
  Alcotest.(check bool) "times identical" true
    (rep.trajectory.ts = clean.trajectory.ts);
  Alcotest.(check bool) "states identical" true
    (rep.trajectory.states = clean.trajectory.states)

let test_spawn_failure_degrades () =
  (* An injected spawn failure walks the degradation ladder: the run
     completes on fewer domains, records the degradation, and changes
     no output bit. *)
  let r = Lazy.force servo in
  let tend = 1e-4 in
  let solver = R.Rk4 (tend /. 10.) in
  let clean =
    R.execute ~config:(config ~execution:(R.Real_domains 2) ()) ~solver ~tend
      r
  in
  let plan =
    Om_guard.Fault_plan.make
      [ Om_guard.Fault_plan.Fail_spawn { worker = 1 } ]
  in
  let cfg =
    { (config ~execution:(R.Real_domains 3) ()) with R.faults = Some plan }
  in
  let rep = R.execute ~config:cfg ~solver ~tend r in
  (match rep.degradations with
  | [ d ] ->
      Alcotest.(check int) "failed worker recorded" 1 d.Om_guard.Om_error.worker;
      Alcotest.(check int) "remaining workers recorded" 2
        d.Om_guard.Om_error.remaining;
      Alcotest.(check bool) "cause is the spawn failure" true
        (match d.Om_guard.Om_error.cause with
        | Om_guard.Om_error.Spawn_failure { worker = 1; nworkers = 3; _ } ->
            true
        | _ -> false)
  | ds ->
      Alcotest.failf "expected exactly one degradation, got %d"
        (List.length ds));
  Alcotest.(check bool) "times identical" true
    (rep.trajectory.ts = clean.trajectory.ts);
  Alcotest.(check bool) "states identical" true
    (rep.trajectory.states = clean.trajectory.states)

let test_spawn_failure_ladder_to_sequential () =
  (* Every domain failing to spawn bottoms out at guarded sequential
     execution — still bitwise identical. *)
  let r = Lazy.force servo in
  let tend = 1e-4 in
  let solver = R.Rk4 (tend /. 10.) in
  let clean =
    R.execute ~config:(config ~execution:(R.Real_domains 1) ()) ~solver ~tend
      r
  in
  (* Two fire-once faults on worker 0: one per rung of the ladder (the
     retry with fewer domains re-checks worker ids from 0). *)
  let plan =
    Om_guard.Fault_plan.make
      [
        Om_guard.Fault_plan.Fail_spawn { worker = 0 };
        Om_guard.Fault_plan.Fail_spawn { worker = 0 };
      ]
  in
  let cfg =
    { (config ~execution:(R.Real_domains 2) ()) with R.faults = Some plan }
  in
  let rep = R.execute ~config:cfg ~solver ~tend r in
  Alcotest.(check int) "two rungs recorded" 2 (List.length rep.degradations);
  Alcotest.(check bool) "states identical" true
    (rep.trajectory.states = clean.trajectory.states)

(* ---------- the compiled model's lazy stages ---------- *)

let final (rep : R.report) = Om_ode.Odesys.final_state rep.trajectory

let test_sequential_builds_no_back_end () =
  (* A sequential run of a model reads only its front: no partition,
     per-task code, tasks or analysis are built, and the trajectory is
     bitwise the one the whole compile gives. *)
  let source = Om_models.Servo.source () in
  let m = P.model_of_source source in
  let backs = P.back_count () in
  let tend = 1e-3 in
  let sequential = { R.default_config with R.execution = R.Real_domains 0 } in
  let rep = R.execute_model ~config:sequential ~solver:R.Lsoda ~tend m in
  Alcotest.(check int) "no back end built" backs (P.back_count ());
  let reference =
    R.execute ~config:sequential ~solver:R.Lsoda ~tend
      (P.compile_source source)
  in
  Alcotest.(check bool) "bitwise the whole compile's trajectory" true
    (rep.trajectory = reference.trajectory);
  (* Real domains build it, once, and change no bit. *)
  let backs = P.back_count () in
  let parallel = { R.default_config with R.execution = R.Real_domains 2 } in
  let rep2 = R.execute_model ~config:parallel ~solver:R.Lsoda ~tend m in
  ignore (R.execute_model ~config:parallel ~solver:R.Lsoda ~tend m);
  Alcotest.(check int) "two domains build the back end once" (backs + 1)
    (P.back_count ());
  Alcotest.(check bool) "bitwise across modes" true
    (final rep2 = final rep)

(* Every mode reports through one integrate-and-report step: for each
   solver, the simulated machine, the supervisor alone and two real
   domains end on the same bits with the same solver counters. *)
let test_one_report_three_modes () =
  let m = P.model_of_flat (Om_models.Bearing2d.model ()) in
  let bits (rep : R.report) = Array.map Int64.bits_of_float (final rep) in
  List.iter
    (fun (name, solver, tend) ->
      let run execution =
        R.execute_model
          ~config:{ R.default_config with R.execution }
          ~solver ~tend m
      in
      let simulated = run R.Simulated in
      List.iter
        (fun (mode, (rep : R.report)) ->
          let what field = Printf.sprintf "%s %s: %s" name mode field in
          Alcotest.(check (array int64)) (what "final state") (bits simulated)
            (bits rep);
          Alcotest.(check int) (what "rhs_calls") simulated.rhs_calls
            rep.rhs_calls;
          Alcotest.(check int) (what "solver_steps") simulated.solver_steps
            rep.solver_steps;
          Alcotest.(check int) (what "jac_calls") simulated.jac_calls
            rep.jac_calls;
          Alcotest.(check string) (what "jac_mode") simulated.jac_mode
            rep.jac_mode;
          Alcotest.(check (option int)) (what "jac_nnz") simulated.jac_nnz
            rep.jac_nnz)
        [
          ("Real_domains 0", run (R.Real_domains 0));
          ("Real_domains 2", run (R.Real_domains 2));
        ];
      if solver = R.Lsoda then
        Alcotest.(check bool) "lsoda takes Jacobians" true
          (simulated.jac_calls > 0))
    [
      ("lsoda", R.Lsoda, 0.01);
      ("rk4", R.Rk4 1e-5, 2e-4);
      ("rkf45", R.Rkf45, 2e-4);
    ]

let test_concurrent_force_builds_once () =
  (* Two domains asking one model for its back end at the same moment
     build it once and share it; its sequential program is the front's,
     physically. *)
  let m = P.model_of_flat (Om_models.Bearing2d.model ()) in
  let backs = P.back_count () in
  let ready = Atomic.make 0 in
  let force () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    P.result m
  in
  let d = Domain.spawn force in
  let mine = force () in
  let theirs = Domain.join d in
  Alcotest.(check int) "built once" (backs + 1) (P.back_count ());
  Alcotest.(check bool) "one physical result" true (mine == theirs);
  Alcotest.(check bool) "the front's sequential program" true
    (mine.compiled.sequential () == P.rhs_program m)

let () =
  Alcotest.run "runtime"
    [
      ( "reports",
        [
          Alcotest.test_case "basics" `Quick test_report_basics;
          Alcotest.test_case "rhs calls match solver" `Quick
            test_rhs_calls_match_solver;
          Alcotest.test_case "all solvers" `Quick test_solvers_run;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "trajectory independent of scheduling" `Quick
            test_trajectory_independent_of_scheduling;
        ] );
      ( "performance model",
        [
          Alcotest.test_case "local beats one worker" `Quick
            test_local_execution_faster_than_one_worker;
          Alcotest.test_case "low-latency speedup" `Quick
            test_speedup_on_low_latency_machine;
          Alcotest.test_case "high-latency peak" `Quick
            test_high_latency_machine_peaks;
          Alcotest.test_case "timesharing knee" `Quick test_timeshared_knee;
          Alcotest.test_case "needed-only strategy" `Quick
            test_needed_only_not_slower;
          Alcotest.test_case "worker utilization" `Quick
            test_worker_utilization;
          Alcotest.test_case "needed-only numerics" `Quick
            test_needed_only_same_numerics;
        ] );
      ( "semidynamic",
        [
          Alcotest.test_case "reschedules with bounded overhead" `Quick
            test_semidynamic_reschedules_and_overhead;
        ] );
      ( "topology",
        [
          Alcotest.test_case "tree through runtime" `Quick
            test_tree_topology_runtime;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "monotone analytic" `Quick test_sweep_monotone;
          Alcotest.test_case "series" `Quick test_sweep_series;
        ] );
      ( "umbrella",
        [
          Alcotest.test_case "odesys_of_source" `Quick test_odesys_of_source;
          Alcotest.test_case "odesys_of_result" `Quick test_odesys_of_result;
        ] );
      ( "lazy stages",
        [
          Alcotest.test_case "sequential run builds no back end" `Quick
            test_sequential_builds_no_back_end;
          Alcotest.test_case "concurrent force builds once" `Quick
            test_concurrent_force_builds_once;
          Alcotest.test_case "one report, three modes" `Quick
            test_one_report_three_modes;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "simulated bitwise recovery" `Quick
            test_simulated_chaos_bitwise_recovery;
          Alcotest.test_case "guard stops blowup" `Quick
            test_simulated_guard_stops_blowup;
          Alcotest.test_case "guard off" `Quick
            test_no_guard_config_disables_detection;
          Alcotest.test_case "real domains bitwise recovery" `Quick
            test_real_domains_chaos_bitwise_recovery;
          Alcotest.test_case "spawn failure degrades" `Quick
            test_spawn_failure_degrades;
          Alcotest.test_case "spawn ladder to sequential" `Quick
            test_spawn_failure_ladder_to_sequential;
        ] );
    ]
