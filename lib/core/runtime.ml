type scheduling =
  | Static
  | Static_with of float array
  | Semidynamic of int

type topology = Flat | Tree of int
type execution = Simulated | Real_domains of int

type config = {
  machine : Om_machine.Machine.t;
  nworkers : int;
  strategy : Om_machine.Supervisor.comm_strategy;
  scheduling : scheduling;
  topology : topology;
  execution : execution;
  guard : bool;
  faults : Om_guard.Fault_plan.t option;
  barrier_deadline : float;
  cancel : Om_guard.Cancel.t option;
  jac_mode : Om_ode.Odesys.jac_mode;
}

let default_config =
  {
    machine = Om_machine.Machine.sparccenter_2000;
    nworkers = 1;
    strategy = Om_machine.Supervisor.Broadcast_state;
    scheduling = Static;
    topology = Flat;
    execution = Simulated;
    guard = true;
    faults = None;
    barrier_deadline = 0.;
    cancel = None;
    jac_mode = Om_ode.Odesys.Auto;
  }

type solver = Rk4 of float | Rkf45 | Lsoda

type report = {
  trajectory : Om_ode.Odesys.trajectory;
  rhs_calls : int;
  sim_seconds : float;
  rhs_calls_per_sec : float;
  sched_overhead_seconds : float;
  supervisor_comm_seconds : float;
  worker_utilization : float;
  worker_compute_seconds : float array;
  worker_wait_seconds : float array;
  reschedules : int;
  solver_steps : int;
  retries : int;
  faults_injected : int;
  degradations : Om_guard.Om_error.degradation list;
  jac_mode : string;
  jac_nnz : int option;
  jac_calls : int;
}

(* The round descriptor of an LPT schedule of [costs] over [nprocs]
   workers, built once per run: its read and write sets serve every
   simulated round, and the real executor runs it. *)
let round_desc (r : Om_codegen.Pipeline.result) ~costs ~nprocs =
  let sched = Om_sched.Lpt.schedule ~costs r.tasks ~nprocs in
  Om_machine.Round_desc.make ~assignment:sched.assignment ~task_flops:costs
    ~task_reads:(Array.map (fun t -> t.Om_sched.Task.reads) r.tasks)
    ~task_writes:(Array.map (fun t -> t.Om_sched.Task.writes) r.tasks)
    ~state_dim:r.compiled.dim

(* Simulated seconds for one round of [desc]: its assignment, at its
   per-task costs. *)
let simulate_round config (r : Om_codegen.Pipeline.result)
    (desc : Om_machine.Round_desc.t) =
  let m = config.machine in
  let round =
    match config.topology with
    | Tree fanout when config.nworkers > 0 ->
        Om_machine.Supervisor.tree_round m ~fanout ~nworkers:config.nworkers
          ~assignment:desc.assignment ~task_flops:desc.task_flops
          ~task_reads:desc.task_reads ~task_writes:desc.task_writes
          ~state_dim:desc.state_dim
    | Flat | Tree _ ->
        Om_machine.Supervisor.round_desc m ~nworkers:config.nworkers
          ~strategy:config.strategy desc
  in
  (* The supervisor evaluates the residuals of split assignments after
     the gather phase. *)
  let epilogue = r.plan.epilogue_flops *. m.flop_time in
  let utilization =
    if config.nworkers = 0 || round.duration <= 0. then 1.
    else
      Array.fold_left ( +. ) 0. round.worker_compute
      /. (float_of_int config.nworkers *. round.duration)
  in
  (round.duration +. epilogue, round.supervisor_busy, utilization,
   round.worker_compute)

let solve ~jac_mode solver sys ~t0 ~tend ~y0 =
  match solver with
  | Rk4 h -> Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 sys ~t0 ~y0 ~tend ~h
  | Rkf45 -> Om_ode.Rk.rkf45 sys ~t0 ~y0 ~tend
  | Lsoda -> (Om_ode.Lsoda.integrate ~jac_mode sys ~t0 ~y0 ~tend).trajectory

(* The post-round finite guard, armed by [config.guard]: scans the
   derivative vector after every RHS evaluation and raises a typed
   [Nonfinite_output] naming the flattened equation, which the solvers
   above answer with retry/backoff. *)
let guard_of config m =
  if config.guard then
    let fm = Om_codegen.Pipeline.flat_model m in
    Some
      (Om_guard.Finite_guard.create
         ~names:(Om_lang.Flat_model.state_names fm)
         ~dim:(Om_lang.Flat_model.dim fm))
  else None

let[@inline] guard_check guard ~time ydot =
  match guard with
  | None -> ()
  | Some g -> Om_guard.Finite_guard.check g ~time ydot

(* Cooperative cancellation/deadline poll, once per RHS round — the
   natural safe point: no partial round is ever observed, and the
   non-retryable fault aborts the solver immediately
   (Om_error.retryable). *)
let[@inline] cancel_check config =
  match config.cancel with
  | None -> ()
  | Some c -> Om_guard.Cancel.check c

(* The one integrate-and-report step of every mode: integrate the
   system {!Om_codegen.Pipeline.system} builds over the mode's round
   [f], and report it.  The report starts as a run on the supervisor
   alone, timed by the wall clock; [account] fills in the mode's own
   account of its rounds once the integration has ended. *)
let integrate (config : config) ~solver ~t0 ~tend m f account =
  let sys = Om_codegen.Pipeline.system m f in
  let y0 =
    Om_lang.Flat_model.initial_values (Om_codegen.Pipeline.flat_model m)
  in
  let start = Unix.gettimeofday () in
  let trajectory =
    solve ~jac_mode:config.jac_mode solver sys ~t0 ~tend ~y0
  in
  let wall = Unix.gettimeofday () -. start in
  let jac_mode, jac_nnz =
    Om_ode.Jacobian.mode_stats ~jac_mode:config.jac_mode sys
  in
  let c = sys.counters in
  let rep =
    account
      {
        trajectory;
        rhs_calls = c.rhs_calls;
        sim_seconds = wall;
        rhs_calls_per_sec = 0.;
        sched_overhead_seconds = 0.;
        supervisor_comm_seconds = 0.;
        worker_utilization = 1.;
        worker_compute_seconds = [||];
        worker_wait_seconds = [||];
        reschedules = 0;
        solver_steps = c.steps;
        retries = c.retries;
        faults_injected =
          (match config.faults with
          | None -> 0
          | Some p -> Om_guard.Fault_plan.injected p);
        degradations = [];
        jac_mode;
        jac_nnz;
        jac_calls = c.jac_calls;
      }
  in
  let s = rep.sim_seconds in
  { rep with
    rhs_calls_per_sec = (if s > 0. then float_of_int c.rhs_calls /. s else 0.)
  }

(* Real execution: the same LPT schedule as the simulator, but the round
   runs on [nworkers] domains and the clock is the wall clock.  Under
   [Semidynamic period] the measured per-task times of every round feed
   the paper's §3.2.3 rescheduler, and rebuilt LPT schedules are swapped
   into the live executor between rounds (Par_exec) — trajectories stay
   bit-identical regardless, because tasks write disjoint slots and the
   epilogue runs on the supervisor.  The report's overhead/utilization
   fields are measured per-worker telemetry (Om_parallel.Round_stats),
   not placeholders. *)
let execute_real config ~nworkers ~solver ~t0 ~tend
    ~(back : unit -> Om_codegen.Pipeline.result) m =
  let guard = guard_of config m in
  (* Degradation events accumulate across the ladder: spawn-time drops
     (retry with one worker fewer), mid-run drops (a stalled worker's
     tasks are LPT-reassigned to the survivors), and the final fall to
     sequential evaluation on the supervisor. *)
  let degradations = ref [] in
  (* Rung 0 of the ladder: no live workers left, so the supervisor
     evaluates the RHS itself — still guarded, through the model's
     sequential program, which applies the rounds' operations in their
     order to the same values, so the trajectory is bit-identical.  It
     reads only the front: no per-task code is built for it. *)
  let run_sequential () =
    let rhs = Om_codegen.Pipeline.sequential_fn m in
    let f t y ydot =
      cancel_check config;
      rhs t y ydot;
      guard_check guard ~time:t ydot
    in
    integrate config ~solver ~t0 ~tend m f (fun rep ->
        { rep with degradations = List.rev !degradations })
  in
  (* The per-task back end, built (or taken from the model) on the first
     rung that spawns workers. *)
  let result = lazy (back ()) in
  let run_with nworkers =
    let r = Lazy.force result in
    let costs =
      match config.scheduling with
      | Static_with costs -> costs
      | Static | Semidynamic _ ->
          Om_codegen.Bytecode_backend.task_costs_static r.compiled
    in
    let semidynamic =
      match config.scheduling with
      | Semidynamic period -> Some period
      | Static | Static_with _ -> None
    in
    let barrier_deadline =
      if config.barrier_deadline > 0. then Some config.barrier_deadline
      else None
    in
    Om_parallel.Par_exec.with_executor ?barrier_deadline ?fault:config.faults
      ?semidynamic ~nworkers ~tasks:r.tasks
      (round_desc r ~costs ~nprocs:nworkers)
      r.compiled
    @@ fun exec ->
    let f t y ydot =
      cancel_check config;
      Om_parallel.Par_exec.rhs_fn exec t y ydot;
      (* A barrier-deadline overrun recorded by the pool steps the
         ladder: drop the stalled worker (its tasks go to the survivors
         by LPT; trajectories stay bit-identical because output slots
         are disjoint and the epilogue runs on the supervisor).  The round
         itself always completed — detection is advisory — so [ydot] is
         already consistent. *)
      (match Om_parallel.Par_exec.take_stall exec with
      | None -> ()
      | Some cause ->
          let live = Om_parallel.Par_exec.live_workers exec in
          let dropped =
            match cause with
            | Om_guard.Om_error.Worker_stall { worker; _ } when live > 1 ->
                Om_parallel.Par_exec.drop_worker exec worker;
                Some worker
            | _ -> None
          in
          let at_round =
            match cause with
            | Om_guard.Om_error.Worker_stall { round; _ }
            | Om_guard.Om_error.Barrier_timeout { round; _ } ->
                round
            | _ -> Om_parallel.Par_exec.rounds exec
          in
          degradations :=
            {
              Om_guard.Om_error.at_round;
              worker = (match dropped with Some w -> w | None -> -1);
              remaining =
                (match dropped with Some _ -> live - 1 | None -> live);
              cause;
            }
            :: !degradations);
      guard_check guard ~time:t ydot
    in
    (* The supervisor evaluates the symbolic Jacobian between rounds. *)
    integrate config ~solver ~t0 ~tend m f (fun rep ->
        let module Rs = Om_parallel.Round_stats in
        let st = Om_parallel.Par_exec.stats exec in
        {
          rep with
          sched_overhead_seconds = Rs.reschedule_seconds st;
          supervisor_comm_seconds = Rs.barrier_seconds st;
          worker_utilization = Rs.utilization st;
          worker_compute_seconds = Rs.worker_compute st;
          worker_wait_seconds = Rs.worker_wait st;
          reschedules = Rs.reschedules st;
          degradations = List.rev !degradations;
        })
  in
  (* Spawn-failure rungs: each failed pool construction retries with one
     worker fewer, recording the drop, until sequential evaluation. *)
  let rec attempt nworkers =
    if nworkers < 1 then run_sequential ()
    else
      match run_with nworkers with
      | report -> report
      | exception
          Om_guard.Om_error.Error
            (Om_guard.Om_error.Spawn_failure { worker; _ } as cause) ->
          degradations :=
            {
              Om_guard.Om_error.at_round = 0;
              worker;
              remaining = nworkers - 1;
              cause;
            }
            :: !degradations;
          attempt (nworkers - 1)
  in
  attempt nworkers

let execute_simulated config ~solver ~t0 ~tend
    ~(back : unit -> Om_codegen.Pipeline.result) m =
  let r = back () in
  let compiled = r.compiled in
  let n_tasks = Array.length compiled.tasks in
  let nprocs = max 1 config.nworkers in
  let sim_seconds = ref 0. in
  let comm_seconds = ref 0. in
  let sched_overhead = ref 0. in
  let utilization_sum = ref 0. in
  let rounds = ref 0 in
  let measured = Array.make n_tasks 0. in
  let semidyn =
    match config.scheduling with
    | Static | Static_with _ -> None
    | Semidynamic period ->
        Some (Om_sched.Semidynamic.create ~period r.tasks ~nprocs)
  in
  let desc =
    let costs =
      match config.scheduling with
      | Static_with costs -> costs
      | Static | Semidynamic _ ->
          Array.map (fun t -> t.Om_sched.Task.cost) r.tasks
    in
    round_desc r ~costs ~nprocs
  in
  let overhead_per_resched =
    Om_sched.Semidynamic.overhead_cost_per_reschedule r.tasks
    *. config.machine.flop_time
  in
  let reschedules_seen = ref 0 in
  let compute_tot = Array.make (max 0 config.nworkers) 0. in
  let wait_tot = Array.make (max 0 config.nworkers) 0. in
  let guard = guard_of config m in
  let round_idx = ref 0 in
  let f t y ydot =
    cancel_check config;
    compiled.set_state t y;
    incr round_idx;
    (* Execute the tasks for real, measuring branch-resolved costs. *)
    for i = 0 to n_tasks - 1 do
      measured.(i) <- compiled.tasks.(i).measured_eval ();
      (* Chaos under simulation: task poisons land exactly as they
         would on a real worker, so solver-backoff behaviour can be
         tested without domains.  (Delays and spawn failures have no
         simulated analogue and are ignored here.) *)
      match config.faults with
      | None -> ()
      | Some plan ->
          let p =
            Om_guard.Fault_plan.task_poison plan ~round:!round_idx ~task:i
          in
          if p <> 0. then compiled.tasks.(i).poison p
    done;
    compiled.run_epilogue ();
    Array.blit compiled.out 0 ydot 0 compiled.dim;
    guard_check guard ~time:t ydot;
    (* Charge simulated machine time for the round. *)
    let assignment =
      match semidyn with
      | None -> desc.assignment
      | Some sd -> (Om_sched.Semidynamic.current sd).assignment
    in
    let duration, busy, util, worker_compute =
      simulate_round config r { desc with assignment; task_flops = measured }
    in
    sim_seconds := !sim_seconds +. duration;
    comm_seconds := !comm_seconds +. busy;
    utilization_sum := !utilization_sum +. util;
    if Array.length worker_compute = Array.length compute_tot then
      Array.iteri
        (fun w c ->
          compute_tot.(w) <- compute_tot.(w) +. c;
          wait_tot.(w) <- wait_tot.(w) +. Float.max 0. (duration -. c))
        worker_compute;
    incr rounds;
    match semidyn with
    | None -> ()
    | Some sd ->
        Om_sched.Semidynamic.observe sd measured;
        let n = Om_sched.Semidynamic.reschedule_count sd in
        if n > !reschedules_seen then begin
          sched_overhead :=
            !sched_overhead
            +. (float_of_int (n - !reschedules_seen) *. overhead_per_resched);
          reschedules_seen := n
        end
  in
  integrate config ~solver ~t0 ~tend m f (fun rep ->
      {
        rep with
        sim_seconds = !sim_seconds +. !sched_overhead;
        sched_overhead_seconds = !sched_overhead;
        supervisor_comm_seconds = !comm_seconds;
        worker_utilization =
          (if !rounds = 0 then 1.
           else !utilization_sum /. float_of_int !rounds);
        worker_compute_seconds = compute_tot;
        worker_wait_seconds = wait_tot;
        reschedules = !reschedules_seen;
      })

(* [back ()] is the back end a run executes: a clone of the model's when
   the model may be shared, the caller's own result otherwise. *)
let run ~back ?(config = default_config) ?solver ?(t0 = 0.) ~tend m =
  let solver =
    match solver with Some s -> s | None -> Rk4 ((tend -. t0) /. 400.)
  in
  match config.execution with
  | Simulated -> execute_simulated config ~solver ~t0 ~tend ~back m
  | Real_domains n ->
      execute_real config ~nworkers:n ~solver ~t0 ~tend ~back m

let execute_model ?config ?solver ?t0 ~tend m =
  run
    ~back:(fun () ->
      Om_codegen.Pipeline.clone_scratch (Om_codegen.Pipeline.result m))
    ?config ?solver ?t0 ~tend m

let execute ?config ?solver ?t0 ~tend r =
  run ~back:(fun () -> r) ?config ?solver ?t0 ~tend
    (Om_codegen.Pipeline.of_result r)

let round_seconds ?(config = default_config) ?costs
    (r : Om_codegen.Pipeline.result) =
  let costs =
    match costs with
    | Some c -> c
    | None -> Om_codegen.Bytecode_backend.task_costs_static r.compiled
  in
  let duration, _, _, _ =
    simulate_round config r
      (round_desc r ~costs ~nprocs:(max 1 config.nworkers))
  in
  duration

let speedup ?(strategy = Om_machine.Supervisor.Broadcast_state) ~machine
    ~nworkers r =
  let base =
    round_seconds
      ~config:{ default_config with machine; nworkers = 0; strategy }
      r
  in
  let par =
    round_seconds ~config:{ default_config with machine; nworkers; strategy } r
  in
  base /. par
