(* Tests for the real multicore executor: domain pool round protocol,
   descriptor validation, bit-identical trajectories through Runtime for
   every worker count, and the zero-allocation steady-state round. *)

module P = Om_codegen.Pipeline
module Bb = Om_codegen.Bytecode_backend
module R = Objectmath.Runtime
module Round_desc = Om_machine.Round_desc
module Domain_pool = Om_parallel.Domain_pool
module Par_exec = Om_parallel.Par_exec

let bearing = lazy (P.compile (Om_models.Bearing2d.model ()))
let powerplant = lazy (P.compile (Om_models.Powerplant.model ()))

let desc_of ~nworkers (r : P.result) =
  let costs = Bb.task_costs_static r.compiled in
  let sched = Om_sched.Lpt.schedule ~costs r.tasks ~nprocs:nworkers in
  Round_desc.make ~assignment:sched.assignment ~task_flops:costs
    ~task_reads:(Array.map (fun t -> t.Om_sched.Task.reads) r.tasks)
    ~task_writes:(Array.map (fun t -> t.Om_sched.Task.writes) r.tasks)
    ~state_dim:r.compiled.dim

(* ---------- domain pool ---------- *)

let test_pool_rounds () =
  let hits = Array.make 4 0 in
  let pool =
    Domain_pool.create ~job:(fun w -> hits.(w) <- hits.(w) + 1) 4
  in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      for _ = 1 to 25 do
        Domain_pool.round pool
      done;
      Alcotest.(check int) "rounds counted" 25 (Domain_pool.rounds pool);
      Alcotest.(check (array int)) "every worker ran every round"
        [| 25; 25; 25; 25 |] hits);
  Alcotest.(check bool) "inactive after shutdown" false
    (Domain_pool.active pool);
  (* Idempotent: a second shutdown must not raise or hang. *)
  Domain_pool.shutdown pool

let test_pool_invalid () =
  Alcotest.check_raises "zero workers"
    (Invalid_argument "Domain_pool.create: nworkers < 1") (fun () ->
      ignore (Domain_pool.create ~job:ignore 0))

(* ---------- fault containment and degradation ---------- *)

let busy_wait seconds =
  let t0 = Om_parallel.Monotonic.now () in
  while Om_parallel.Monotonic.now () -. t0 < seconds do
    Domain.cpu_relax ()
  done

let test_pool_exception_containment () =
  (* A job that raises mid-round must not kill its domain or hang the
     barrier: the exception surfaces on the supervisor as a typed
     Worker_exception, and the pool keeps working afterwards. *)
  let boom = Atomic.make false in
  let hits = Array.make 2 0 in
  let job w =
    hits.(w) <- hits.(w) + 1;
    if w = 1 && Atomic.get boom then failwith "kaboom"
  in
  let pool = Domain_pool.create ~job 2 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Domain_pool.round pool;
      Atomic.set boom true;
      (match Domain_pool.round pool with
      | () -> Alcotest.fail "worker exception swallowed"
      | exception
          Om_guard.Om_error.(
            Error (Worker_exception { worker; round; detail })) ->
          Alcotest.(check int) "worker attributed" 1 worker;
          (* the second round: rounds are numbered from 1 *)
          Alcotest.(check int) "round attributed" 2 round;
          Alcotest.(check bool) "detail carries the original" true
            (String.length detail > 0));
      (* The failed round still completed on every worker... *)
      Alcotest.(check (array int)) "barrier completed" [| 2; 2 |] hits;
      (* ...and the pool is fully operational for subsequent rounds. *)
      Atomic.set boom false;
      for _ = 1 to 3 do
        Domain_pool.round pool
      done;
      Alcotest.(check (array int)) "pool reusable" [| 5; 5 |] hits);
  Alcotest.(check bool) "clean shutdown" false (Domain_pool.active pool);
  (* A fresh pool spawns fine after the poisoned one died. *)
  let pool2 = Domain_pool.create ~job:ignore 2 in
  Domain_pool.round pool2;
  Domain_pool.shutdown pool2

let test_pool_typed_fault_passthrough () =
  (* Typed guard errors raised inside a job cross the barrier as-is,
     not wrapped as Worker_exception. *)
  let fire = Atomic.make false in
  let job _w =
    if Atomic.get fire then
      Om_guard.Om_error.(
        error
          (Nonfinite_output
             { slot = 0; equation = "der(x)"; value = Float.nan; time = 0. }))
  in
  let pool = Domain_pool.create ~job 2 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Domain_pool.round pool;
      Atomic.set fire true;
      Alcotest.(check bool) "typed fault passes through unwrapped" true
        (match Domain_pool.round pool with
        | () -> false
        | exception
            Om_guard.Om_error.(Error (Nonfinite_output { equation; _ })) ->
            equation = "der(x)"
        | exception _ -> false))

let test_pool_stall_detection () =
  (* A worker outliving the barrier deadline is recorded (and
     attributed) without corrupting the round: the barrier still waits
     for it. *)
  let stall = Atomic.make false in
  let done_flags = Array.make 2 0 in
  let job w =
    if w = 1 && Atomic.get stall then busy_wait 0.01;
    done_flags.(w) <- done_flags.(w) + 1
  in
  let pool = Domain_pool.create ~barrier_deadline:0.002 ~job 2 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Domain_pool.round pool;
      ignore (Domain_pool.take_stall pool);
      Atomic.set stall true;
      Domain_pool.round pool;
      Atomic.set stall false;
      (match Domain_pool.take_stall pool with
      | Some (Om_guard.Om_error.Worker_stall { worker; waited_s; round }) ->
          Alcotest.(check int) "stalled worker attributed" 1 worker;
          Alcotest.(check int) "rounds numbered from 1" 2 round;
          Alcotest.(check bool) "waited past the deadline" true
            (waited_s >= 0.002)
      | Some e ->
          (* More than one worker can miss the deadline under load. *)
          Alcotest.(check bool) "timeout event in round 2" true
            (match e with
            | Om_guard.Om_error.Barrier_timeout { round; _ } -> round = 2
            | _ -> false)
      | None -> Alcotest.fail "stall not detected");
      Alcotest.(check bool) "event consumed" true
        (Domain_pool.take_stall pool = None);
      (* The slow worker's write completed before round returned. *)
      Alcotest.(check (array int)) "barrier waited for the straggler"
        [| 2; 2 |] done_flags)

let test_pool_stall_attribution () =
  (* Both workers are still busy at the deadline, but worker 1 arrives
     long before worker 0: the stall belongs to worker 0, not to a
     two-worker barrier timeout. *)
  let job w = busy_wait (if w = 0 then 0.1 else 0.01) in
  let pool = Domain_pool.create ~barrier_deadline:0.002 ~job 2 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Domain_pool.round pool;
      match Domain_pool.take_stall pool with
      | Some (Om_guard.Om_error.Worker_stall { worker; _ }) ->
          Alcotest.(check int) "slowest worker attributed" 0 worker
      | Some e -> Alcotest.fail (Om_guard.Om_error.to_string e)
      | None -> Alcotest.fail "stall not detected")

let test_pool_spawn_fail () =
  (* Injected spawn failure: typed error, nothing leaks, and the same
     job can immediately be spawned without injection. *)
  (match
     Domain_pool.create ~spawn_fail:(fun w -> w = 1) ~job:ignore 3
   with
  | _ -> Alcotest.fail "injected spawn failure ignored"
  | exception
      Om_guard.Om_error.(Error (Spawn_failure { worker; nworkers; _ })) ->
      Alcotest.(check int) "failing worker" 1 worker;
      Alcotest.(check int) "pool size attributed" 3 nworkers);
  let pool = Domain_pool.create ~job:ignore 3 in
  Domain_pool.round pool;
  Domain_pool.shutdown pool

let test_drop_worker () =
  (* The degradation ladder: dropping a worker moves all its tasks to
     the survivors and changes no output bit. *)
  let r = Lazy.force bearing in
  let nworkers = 3 in
  let desc = desc_of ~nworkers r in
  let dim = r.compiled.dim in
  let y = Om_lang.Flat_model.initial_values r.model in
  let reference = Array.make dim 0. in
  Bb.rhs_fn r.compiled 0. y reference;
  Par_exec.with_executor ~nworkers ~tasks:r.tasks desc r.compiled @@ fun px ->
  let ydot = Array.make dim 0. in
  Par_exec.rhs_fn px 0. y ydot;
  Alcotest.(check bool) "before drop: matches sequential" true
    (ydot = reference);
  Alcotest.(check int) "all live" 3 (Par_exec.live_workers px);
  Par_exec.drop_worker px 1;
  Alcotest.(check int) "one dropped" 2 (Par_exec.live_workers px);
  let tasks = Par_exec.worker_tasks px in
  Alcotest.(check int) "dead worker has an empty slice" 0
    (Array.length tasks.(1));
  let covered = Array.make (Round_desc.n_tasks desc) 0 in
  Array.iter
    (Array.iter (fun task -> covered.(task) <- covered.(task) + 1))
    tasks;
  Array.iteri
    (fun task n ->
      Alcotest.(check int)
        (Printf.sprintf "task %d still scheduled once" task)
        1 n)
    covered;
  Array.fill ydot 0 dim 0.;
  Par_exec.rhs_fn px 0. y ydot;
  Alcotest.(check bool) "after drop: matches sequential bitwise" true
    (ydot = reference);
  (* Ladder bottom and misuse are rejected. *)
  Alcotest.(check bool) "double drop rejected" true
    (match Par_exec.drop_worker px 1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Par_exec.drop_worker px 0;
  Alcotest.(check bool) "last worker cannot be dropped" true
    (match Par_exec.drop_worker px 2 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Array.fill ydot 0 dim 0.;
  Par_exec.rhs_fn px 0. y ydot;
  Alcotest.(check bool) "single survivor still matches" true
    (ydot = reference)

let test_exec_fault_injection () =
  (* A Nan_task fault poisons the task's output slots in exactly its
     round; the next round is clean again (fire-once). *)
  let r = Lazy.force bearing in
  let nworkers = 2 in
  let desc = desc_of ~nworkers r in
  let dim = r.compiled.dim in
  let y = Om_lang.Flat_model.initial_values r.model in
  let reference = Array.make dim 0. in
  Bb.rhs_fn r.compiled 0. y reference;
  let plan =
    Om_guard.Fault_plan.make
      [ Om_guard.Fault_plan.Nan_task { task = 0; round = 2 } ]
  in
  Par_exec.with_executor ~fault:plan ~nworkers ~tasks:r.tasks desc r.compiled
  @@ fun px ->
  let ydot = Array.make dim 0. in
  Par_exec.rhs_fn px 0. y ydot;
  Alcotest.(check bool) "round 1 clean" true (ydot = reference);
  Alcotest.(check int) "nothing injected yet" 0
    (Par_exec.faults_injected px);
  Par_exec.rhs_fn px 0. y ydot;
  Alcotest.(check int) "fault fired in round 2" 1
    (Par_exec.faults_injected px);
  Alcotest.(check bool) "round 2 poisoned" true
    (Array.exists Float.is_nan ydot);
  Par_exec.rhs_fn px 0. y ydot;
  Alcotest.(check bool) "round 3 clean again" true (ydot = reference)

let test_exec_stall_round () =
  (* A stall the fault plan injects in round 3 is reported as round 3:
     the plan, the pool's stall records and the degradation ladder share
     one numbering, from 1.  Events of earlier rounds (scheduler jitter
     on a loaded machine) are taken and ignored. *)
  let r = Lazy.force bearing in
  let nworkers = 2 in
  let desc = desc_of ~nworkers r in
  let y = Om_lang.Flat_model.initial_values r.model in
  let plan =
    Om_guard.Fault_plan.make
      [ Om_guard.Fault_plan.Delay_worker
          { worker = 0; round = 3; micros = 60_000 } ]
  in
  Par_exec.with_executor ~fault:plan ~barrier_deadline:0.01 ~nworkers
    ~tasks:r.tasks desc r.compiled
  @@ fun px ->
  let ydot = Array.make r.compiled.dim 0. in
  for _ = 1 to 2 do
    Par_exec.rhs_fn px 0. y ydot;
    ignore (Par_exec.take_stall px)
  done;
  Par_exec.rhs_fn px 0. y ydot;
  Alcotest.(check int) "three rounds" 3 (Par_exec.rounds px);
  match Par_exec.take_stall px with
  | Some
      ( Om_guard.Om_error.Worker_stall { round; _ }
      | Om_guard.Om_error.Barrier_timeout { round; _ } ) ->
      Alcotest.(check int) "stall reported in the injected round" 3 round
  | Some e -> Alcotest.fail (Om_guard.Om_error.to_string e)
  | None -> Alcotest.fail "stall not detected"

let test_exec_spawn_fail_injection () =
  let r = Lazy.force bearing in
  let desc = desc_of ~nworkers:2 r in
  let plan =
    Om_guard.Fault_plan.make [ Om_guard.Fault_plan.Fail_spawn { worker = 0 } ]
  in
  Alcotest.(check bool) "spawn failure surfaces from create" true
    (match Par_exec.create ~fault:plan ~nworkers:2 ~tasks:r.tasks desc
            r.compiled with
    | px ->
        Par_exec.shutdown px;
        false
    | exception Om_guard.Om_error.(Error (Spawn_failure { worker = 0; _ })) ->
        true)

(* ---------- round descriptor ---------- *)

let test_desc_validation () =
  let ok =
    Round_desc.make ~assignment:[| 0; 1; 0 |] ~task_flops:[| 1.; 2.; 3. |]
      ~task_reads:[| [ 0 ]; [ 1 ]; [] |]
      ~task_writes:[| [ 0 ]; [ 1 ]; [ 2 ] |]
      ~state_dim:3
  in
  Alcotest.(check int) "n_tasks" 3 (Round_desc.n_tasks ok);
  Alcotest.(check int) "min_workers" 2 (Round_desc.min_workers ok);
  let mismatched () =
    ignore
      (Round_desc.make ~assignment:[| 0; 1 |] ~task_flops:[| 1. |]
         ~task_reads:[| [] |] ~task_writes:[| [] |] ~state_dim:1)
  in
  Alcotest.(check bool) "length mismatch rejected" true
    (match mismatched () with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_exec_validation () =
  let r = Lazy.force bearing in
  let desc = desc_of ~nworkers:4 r in
  Alcotest.(check bool) "nworkers below assignment range rejected" true
    (match Par_exec.create ~nworkers:2 ~tasks:r.tasks desc r.compiled with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "nworkers < 1 rejected" true
    (match Par_exec.create ~nworkers:0 ~tasks:r.tasks desc r.compiled with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_exec_partition () =
  (* The materialised per-worker task lists are a partition of all task
     ids, each worker's slice ascending. *)
  let r = Lazy.force bearing in
  let nworkers = 3 in
  let desc = desc_of ~nworkers r in
  Par_exec.with_executor ~nworkers ~tasks:r.tasks desc r.compiled @@ fun px ->
  let tasks = Par_exec.worker_tasks px in
  Alcotest.(check int) "one slice per worker" nworkers (Array.length tasks);
  let seen = Array.make (Round_desc.n_tasks desc) 0 in
  Array.iteri
    (fun w slice ->
      Array.iteri
        (fun i task ->
          seen.(task) <- seen.(task) + 1;
          Alcotest.(check int) "assignment respected" w desc.assignment.(task);
          if i > 0 then
            Alcotest.(check bool) "ascending ids" true (slice.(i - 1) < task))
        slice)
    tasks;
  Array.iteri
    (fun task n ->
      Alcotest.(check int) (Printf.sprintf "task %d scheduled once" task) 1 n)
    seen

(* ---------- differential: Real_domains vs sequential ---------- *)

let sequential_reference (r : P.result) ~solver ~tend =
  let sys =
    Om_ode.Odesys.make
      ~names:(Om_lang.Flat_model.state_names r.model)
      ~dim:r.compiled.dim (P.rhs_fn r)
  in
  let y0 = Om_lang.Flat_model.initial_values r.model in
  match solver with
  | R.Rk4 h -> Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 sys ~t0:0. ~y0 ~tend ~h
  | _ -> assert false

let check_identical ?(scheduling = R.Static) name (r : P.result) =
  let tend = 1e-4 in
  let solver = R.Rk4 (tend /. 10.) in
  let reference = sequential_reference r ~solver ~tend in
  List.iter
    (fun n ->
      let rep =
        R.execute
          ~config:
            { R.default_config with execution = R.Real_domains n; scheduling }
          ~solver ~tend r
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: times identical with %d domains" name n)
        true
        (rep.trajectory.ts = reference.ts);
      Alcotest.(check bool)
        (Printf.sprintf "%s: states identical with %d domains" name n)
        true
        (rep.trajectory.states = reference.states))
    [ 1; 2; 4 ]

let test_identical_bearing () = check_identical "bearing" (Lazy.force bearing)

let test_identical_powerplant () =
  check_identical "powerplant" (Lazy.force powerplant)

let test_identical_semidynamic () =
  (* The acceptance property of the measured rescheduler: swapping LPT
     schedules mid-run must not change a single bit of the trajectory. *)
  check_identical ~scheduling:(R.Semidynamic 3) "bearing semidynamic"
    (Lazy.force bearing);
  check_identical ~scheduling:(R.Semidynamic 3) "powerplant semidynamic"
    (Lazy.force powerplant)

(* ---------- measured semi-dynamic execution ---------- *)

let test_real_reschedules () =
  (* Real_domains + Semidynamic must perform actual reschedules (the
     rescheduler fires every [period] observed rounds), and the report's
     telemetry must be measured, not placeholder. *)
  let r = Lazy.force bearing in
  let tend = 1e-4 in
  let rep =
    R.execute
      ~config:
        {
          R.default_config with
          execution = R.Real_domains 2;
          scheduling = R.Semidynamic 5;
        }
      ~solver:(R.Rk4 (tend /. 10.)) ~tend r
  in
  (* Rk4 over 10 steps = 40 RHS rounds; period 5 -> several reschedules
     even if a few rounds fall under clock granularity. *)
  Alcotest.(check bool) "at least one real reschedule" true
    (rep.reschedules >= 1);
  Alcotest.(check bool) "reschedule overhead measured, nonnegative" true
    (rep.sched_overhead_seconds >= 0.);
  Alcotest.(check int) "per-worker compute array" 2
    (Array.length rep.worker_compute_seconds);
  Alcotest.(check int) "per-worker wait array" 2
    (Array.length rep.worker_wait_seconds);
  Array.iter
    (fun c ->
      Alcotest.(check bool) "compute nonnegative" true (c >= 0.))
    rep.worker_compute_seconds;
  Array.iter
    (fun w -> Alcotest.(check bool) "wait nonnegative" true (w >= 0.))
    rep.worker_wait_seconds;
  Alcotest.(check bool) "utilization in (0, 1]" true
    (rep.worker_utilization > 0. && rep.worker_utilization <= 1.)

let test_set_assignment () =
  (* Swapping the live assignment between rounds changes the partition
     without changing results. *)
  let r = Lazy.force bearing in
  let nworkers = 2 in
  let desc = desc_of ~nworkers r in
  let dim = r.compiled.dim in
  let y = Om_lang.Flat_model.initial_values r.model in
  let reference = Array.make dim 0. in
  Bb.rhs_fn r.compiled 0. y reference;
  Par_exec.with_executor ~nworkers ~tasks:r.tasks desc r.compiled @@ fun px ->
  let ydot = Array.make dim 0. in
  Par_exec.rhs_fn px 0. y ydot;
  Alcotest.(check bool) "original schedule matches sequential" true
    (ydot = reference);
  (* Invert the assignment: every task moves to the other worker. *)
  let flipped = Array.map (fun w -> 1 - w) desc.assignment in
  Par_exec.set_assignment px flipped;
  let tasks = Par_exec.worker_tasks px in
  Array.iteri
    (fun w slice ->
      Array.iter
        (fun task ->
          Alcotest.(check int) "flipped assignment respected" w
            flipped.(task))
        slice)
    tasks;
  Array.fill ydot 0 dim 0.;
  Par_exec.rhs_fn px 0. y ydot;
  Alcotest.(check bool) "flipped schedule matches sequential" true
    (ydot = reference)

let test_set_assignment_invalid () =
  let r = Lazy.force bearing in
  let nworkers = 2 in
  let desc = desc_of ~nworkers r in
  Par_exec.with_executor ~nworkers ~tasks:r.tasks desc r.compiled @@ fun px ->
  let ntasks = Array.length r.compiled.Bb.tasks in
  Alcotest.(check bool) "wrong length rejected" true
    (match Par_exec.set_assignment px [| 0 |] with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "worker id out of range rejected" true
    (match Par_exec.set_assignment px (Array.make ntasks nworkers) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_measured_telemetry () =
  let r = Lazy.force bearing in
  let nworkers = 2 in
  let desc = desc_of ~nworkers r in
  Par_exec.with_executor ~nworkers ~tasks:r.tasks desc r.compiled @@ fun m ->
  let dim = r.compiled.dim in
  let y = Om_lang.Flat_model.initial_values r.model in
  let ydot = Array.make dim 0. in
  for _ = 1 to 20 do
    Par_exec.rhs_fn m 0. y ydot
  done;
  let st = Par_exec.stats m in
  let module Rs = Om_parallel.Round_stats in
  Alcotest.(check int) "rounds observed" 20 (Rs.rounds st);
  Alcotest.(check int) "no reschedules without semidynamic" 0
    (Rs.reschedules st);
  Alcotest.(check bool) "round time positive" true (Rs.round_seconds st > 0.);
  Alcotest.(check int) "compute per worker" nworkers
    (Array.length (Rs.worker_compute st));
  Alcotest.(check int) "wait per worker" nworkers
    (Array.length (Rs.worker_wait st));
  Array.iter
    (fun w -> Alcotest.(check bool) "wait nonnegative" true (w >= 0.))
    (Rs.worker_wait st);
  let u = Rs.utilization st in
  Alcotest.(check bool) "utilization in (0, 1]" true (u > 0. && u <= 1.)

let test_drop_survives_reschedules () =
  (* A semi-dynamic reschedule installs LPT over the live workers only,
     as a drop does: the dropped worker's slice stays empty through
     every later reschedule, and every round keeps the sequential bits. *)
  let r = Lazy.force bearing in
  let nworkers = 2 in
  let desc = desc_of ~nworkers r in
  let dim = r.compiled.dim in
  let y = Om_lang.Flat_model.initial_values r.model in
  let reference = Array.make dim 0. in
  Bb.rhs_fn r.compiled 0. y reference;
  Par_exec.with_executor ~semidynamic:2 ~nworkers ~tasks:r.tasks desc
    r.compiled
  @@ fun px ->
  let ydot = Array.make dim 0. in
  Par_exec.rhs_fn px 0. y ydot;
  Par_exec.drop_worker px 0;
  for round = 1 to 6 do
    Array.fill ydot 0 dim 0.;
    Par_exec.rhs_fn px 0. y ydot;
    Alcotest.(check int)
      (Printf.sprintf "round %d: dropped worker holds no task" round)
      0
      (Array.length (Par_exec.worker_tasks px).(0));
    Array.iteri
      (fun i v ->
        if Int64.bits_of_float v <> Int64.bits_of_float reference.(i) then
          Alcotest.failf "round %d deriv %d: %h vs sequential %h" round i v
            reference.(i))
      ydot
  done;
  Alcotest.(check int) "one live worker" 1 (Par_exec.live_workers px);
  Alcotest.(check bool) "reschedules fired after the drop" true
    (Om_parallel.Round_stats.reschedules (Par_exec.stats px) >= 2)

(* ---------- the sequential program across domains ---------- *)

let test_merged_shared_across_domains () =
  (* A fresh compile has not built its sequential program yet: two domains,
     each holding its own clone, race to build it on their first call.
     Both must end up on the one program and compute the same bits as a
     per-task round. *)
  let r = P.compile (Om_models.Bearing2d.model ()) in
  let dim = r.compiled.dim in
  let y = Om_lang.Flat_model.initial_values r.model in
  let ready = Atomic.make 0 in
  let run (c : P.result) =
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        let ydot = Array.make dim 0. in
        for _ = 1 to 20 do
          P.rhs_fn c 0.5 y ydot
        done;
        (ydot, c.compiled.sequential ()))
  in
  let doms = Array.map run [| P.clone_scratch r; P.clone_scratch r |] in
  let a, pa = Domain.join doms.(0) in
  let b, pb = Domain.join doms.(1) in
  Alcotest.(check bool) "one sequential program" true (pa == pb);
  Alcotest.(check bool) "the original shares it" true
    (r.compiled.sequential () == pa);
  let c = r.compiled in
  c.set_state 0.5 y;
  Array.iter (fun (tk : Bb.compiled_task) -> tk.eval ()) c.tasks;
  c.run_epilogue ();
  let reference = Array.sub c.out 0 dim in
  Array.iteri
    (fun i v ->
      let bits = Int64.bits_of_float in
      if bits a.(i) <> bits v || bits b.(i) <> bits v then
        Alcotest.failf "deriv %d: domains %h %h, per-task round %h" i a.(i)
          b.(i) v)
    reference

(* ---------- split plan against the unsplit RHS ---------- *)

(* The bearing's default plan splits Inner.vx and Inner.vy.  Along a
   200-step RK4 run of Odesys.of_equations' RHS, every evaluator of the
   split plan gives its derivatives at each step, bit for bit: per-task
   rounds plus the epilogue, the sequential program, rounds on 2
   real domains and the batched VM at width 1. *)
let test_split_bearing_equals_odesys () =
  let r = Lazy.force bearing in
  Alcotest.(check bool) "the default plan splits" true
    (r.plan.Om_codegen.Partition.n_partials > 0);
  let m = r.model in
  let dim = r.compiled.dim in
  let sys =
    Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations
  in
  let h = 1e-5 in
  let tr =
    Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 sys ~t0:0.
      ~y0:(Om_lang.Flat_model.initial_values m) ~tend:(200. *. h) ~h
  in
  Alcotest.(check bool) "200 steps" true (Array.length tr.ts > 200);
  let per_task t y ydot =
    let c = r.compiled in
    c.set_state t y;
    Array.iter (fun (tk : Bb.compiled_task) -> tk.eval ()) c.tasks;
    c.run_epilogue ();
    Array.blit c.out 0 ydot 0 dim
  in
  let sequential = Bb.rhs_fn (Bb.clone_scratch r.compiled) in
  let batch =
    let b = Om_codegen.Batch_backend.create r.compiled ~width:1 in
    let ycols = Array.init dim (fun _ -> [| 0. |]) in
    let dcols = Array.init dim (fun _ -> [| 0. |]) in
    fun t y ydot ->
      Array.iteri (fun i v -> ycols.(i).(0) <- v) y;
      Om_codegen.Batch_backend.brhs b ~times:[| t |] ~y:ycols ~ydot:dcols
        ~lo:0 ~hi:1;
      Array.iteri (fun i col -> ydot.(i) <- col.(0)) dcols
  in
  let clone = P.clone_scratch r in
  Par_exec.with_executor ~nworkers:2 ~tasks:clone.tasks
    (desc_of ~nworkers:2 clone) clone.compiled
  @@ fun px ->
  let reference = Array.make dim 0. and ydot = Array.make dim 0. in
  Array.iteri
    (fun k t ->
      let y = tr.states.(k) in
      Om_ode.Odesys.rhs_into sys t y reference;
      List.iter
        (fun (what, f) ->
          f t y ydot;
          Array.iteri
            (fun i v ->
              if Int64.bits_of_float v <> Int64.bits_of_float reference.(i)
              then
                Alcotest.failf "%s: step %d deriv %d: %h vs Odesys %h" what k
                  i v reference.(i))
            ydot)
        [
          ("per-task rounds", per_task);
          ("rhs_fn", sequential);
          ("2 real domains", Par_exec.rhs_fn px);
          ("batch width 1", batch);
        ])
    tr.ts

(* ---------- zero allocation in the steady state ---------- *)

let test_round_zero_alloc () =
  (* After warm-up, a parallel RHS round must allocate nothing on the
     supervisor domain: measure the minor-word delta over two loop sizes
     so fixed per-measurement costs cancel (same idiom as the register
     VM's allocation test). *)
  let r = Lazy.force bearing in
  let nworkers = 2 in
  let desc = desc_of ~nworkers r in
  Par_exec.with_executor ~nworkers ~tasks:r.tasks desc r.compiled @@ fun px ->
  let dim = r.compiled.dim in
  let y = Om_lang.Flat_model.initial_values r.model in
  let ydot = Array.make dim 0. in
  let words n =
    Par_exec.rhs_fn px 0. y ydot;
    let before = Gc.minor_words () in
    for _ = 1 to n do
      Par_exec.rhs_fn px 0. y ydot
    done;
    Gc.minor_words () -. before
  in
  let d1 = words 50 in
  let d2 = words 550 in
  Alcotest.(check (float 0.)) "zero words per round" 0. (d2 -. d1)

let test_measured_round_zero_alloc () =
  (* The measured semi-dynamic path — per-task timing, telemetry
     accumulation, share normalisation, EWMA observation — must also be
     allocation-free on the supervisor in rounds where no reschedule
     fires (period larger than the loop). *)
  let r = Lazy.force bearing in
  let nworkers = 2 in
  let desc = desc_of ~nworkers r in
  Par_exec.with_executor ~semidynamic:1_000_000 ~nworkers ~tasks:r.tasks
    desc r.compiled
  @@ fun m ->
  let dim = r.compiled.dim in
  let y = Om_lang.Flat_model.initial_values r.model in
  let ydot = Array.make dim 0. in
  let words n =
    Par_exec.rhs_fn m 0. y ydot;
    let before = Gc.minor_words () in
    for _ = 1 to n do
      Par_exec.rhs_fn m 0. y ydot
    done;
    Gc.minor_words () -. before
  in
  let d1 = words 50 in
  let d2 = words 550 in
  Alcotest.(check (float 0.)) "zero words per measured round" 0. (d2 -. d1)

let () =
  Alcotest.run "om_parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "round protocol" `Quick test_pool_rounds;
          Alcotest.test_case "invalid" `Quick test_pool_invalid;
          Alcotest.test_case "exception containment" `Quick
            test_pool_exception_containment;
          Alcotest.test_case "typed fault passthrough" `Quick
            test_pool_typed_fault_passthrough;
          Alcotest.test_case "stall detection" `Quick test_pool_stall_detection;
          Alcotest.test_case "stall attribution" `Quick
            test_pool_stall_attribution;
          Alcotest.test_case "spawn failure" `Quick test_pool_spawn_fail;
        ] );
      ( "round_desc",
        [ Alcotest.test_case "validation" `Quick test_desc_validation ] );
      ( "par_exec",
        [
          Alcotest.test_case "validation" `Quick test_exec_validation;
          Alcotest.test_case "partition" `Quick test_exec_partition;
          Alcotest.test_case "zero-alloc round" `Quick test_round_zero_alloc;
          Alcotest.test_case "merged program shared across domains" `Quick
            test_merged_shared_across_domains;
          Alcotest.test_case "set_assignment" `Quick test_set_assignment;
          Alcotest.test_case "set_assignment invalid" `Quick
            test_set_assignment_invalid;
          Alcotest.test_case "drop_worker" `Quick test_drop_worker;
          Alcotest.test_case "fault injection" `Quick test_exec_fault_injection;
          Alcotest.test_case "stall round numbering" `Quick
            test_exec_stall_round;
          Alcotest.test_case "spawn-fail injection" `Quick
            test_exec_spawn_fail_injection;
        ] );
      ( "measured",
        [
          Alcotest.test_case "telemetry" `Quick test_measured_telemetry;
          Alcotest.test_case "real reschedules" `Quick test_real_reschedules;
          Alcotest.test_case "drop survives reschedules" `Quick
            test_drop_survives_reschedules;
          Alcotest.test_case "zero-alloc measured round" `Quick
            test_measured_round_zero_alloc;
        ] );
      ( "differential",
        [
          Alcotest.test_case "bearing identical" `Quick test_identical_bearing;
          Alcotest.test_case "split bearing equals odesys" `Quick
            test_split_bearing_equals_odesys;
          Alcotest.test_case "powerplant identical" `Quick
            test_identical_powerplant;
          Alcotest.test_case "semidynamic identical" `Quick
            test_identical_semidynamic;
        ] );
    ]
