(* Real supervisor/worker execution of one compiled RHS round.

   The same inputs as the simulated Supervisor.round — an LPT assignment
   (inside a Round_desc) and the per-task VM programs of a
   Bytecode_backend.t — but the tasks actually run, one domain per
   worker.  Domain safety rests on three properties of the compiled
   form:

   - every task owns its scratch register file (allocated on its first
     [eval]; only this executor runs the per-task programs — sequential
     paths run one program of the unsplit equations), and a task is
     assigned to exactly one worker per round;
   - CSE temporaries are task-private environment slots (per-task
     prefixes), so concurrent [ste] stores from different tasks hit
     disjoint indices of the shared [env] float array;
   - tasks write disjoint output slots and partials, and the epilogue
     (each split assignment's residual) runs on the supervisor after the
     barrier, computing what the unsplit assignment would — which is why
     trajectories are bit-identical for every worker count {e and} for
     every task assignment, including assignments swapped in mid-run by
     the semi-dynamic rescheduler.

   Every task is timed with the unboxed monotonic clock into a shared
   pre-allocated [task_seconds] buffer (disjoint slots per task, so the
   concurrent writes race with nobody); every round is recorded in the
   executor's Round_stats, and under [semidynamic] the per-task times
   drive the paper's §3.2.3 rescheduling loop. *)

module Bb = Om_codegen.Bytecode_backend
module Sd = Om_sched.Semidynamic

type t = {
  pool : Domain_pool.t;
  compiled : Bb.t;
  tasks : Om_sched.Task.t array;
  nworkers : int;
  worker_tasks : int array array; (* worker -> task ids, ascending *)
  task_seconds : float array; (* per-task wall seconds of the last round *)
  task_costs : float array; (* the descriptor's costs, for reassignment *)
  live : bool array; (* live worker set (degradation ladder) *)
  round_box : int array;
      (* round_box.(0): the number of the round in progress, as the pool
         numbers it, for the workers' fault plan *)
  fault : Om_guard.Fault_plan.t option;
  stats : Round_stats.t;
  semidyn : Sd.t option;
  shares : float array; (* normalised per-task time shares buffer *)
  scratch : float array; (* scratch.(0): running sum (see rhs_fn) *)
}

let worker_tasks t = t.worker_tasks
let rounds t = Domain_pool.rounds t.pool
let take_stall t = Domain_pool.take_stall t.pool
let stats t = t.stats

let live_workers t =
  let n = ref 0 in
  Array.iter (fun l -> if l then incr n) t.live;
  !n

let faults_injected t =
  match t.fault with None -> 0 | Some p -> Om_guard.Fault_plan.injected p

(* Per-worker slices of an assignment, each ascending — shared by
   [create] and [set_assignment]. *)
let slices_of ~who ~nworkers ~ntasks assignment =
  if Array.length assignment <> ntasks then
    invalid_arg (who ^ ": assignment length mismatch");
  Array.iter
    (fun w ->
      if w < 0 || w >= nworkers then
        invalid_arg (who ^ ": worker id out of range"))
    assignment;
  let counts = Array.make nworkers 0 in
  Array.iter (fun w -> counts.(w) <- counts.(w) + 1) assignment;
  let slices = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make nworkers 0 in
  Array.iteri
    (fun tid w ->
      slices.(w).(fill.(w)) <- tid;
      fill.(w) <- fill.(w) + 1)
    assignment;
  slices

(* Initial cost estimates for the rescheduler: the static costs
   normalised to sum 1, so the per-round time shares observed later live
   on the same scale.  Normalising by a positive constant changes no LPT
   decision, so the initial schedule equals LPT on the raw statics. *)
let normalized costs =
  let sum = Array.fold_left ( +. ) 0. costs in
  if sum <= 0. then Array.map (fun _ -> 1.) costs
  else Array.map (fun c -> c /. sum) costs

let create ?barrier_deadline ?fault ?semidynamic ~nworkers ~tasks
    (desc : Om_machine.Round_desc.t) (compiled : Bb.t) =
  if nworkers < 1 then invalid_arg "Par_exec.create: nworkers < 1";
  let ntasks = Array.length compiled.Bb.tasks in
  if Array.length tasks <> ntasks then
    invalid_arg "Par_exec.create: tasks length mismatch";
  let slices =
    slices_of ~who:"Par_exec.create" ~nworkers ~ntasks desc.assignment
  in
  (* Built before any domain is spawned, so a bad period leaks none. *)
  let semidyn =
    Option.map
      (fun period ->
        Sd.create ~period ~costs:(normalized desc.task_flops) tasks
          ~nprocs:nworkers)
      semidynamic
  in
  let worker_tasks = Array.make nworkers [||] in
  Array.blit slices 0 worker_tasks 0 nworkers;
  let task_seconds = Array.make ntasks 0. in
  let code = compiled.Bb.tasks in
  let round_box = Array.make 1 0 in
  let plain_job w =
    (* [worker_tasks] is re-read every round, so a slice swapped in by
       [set_assignment] between rounds takes effect at the next round
       (the pool's generation atomics publish the write). *)
    let mine = Array.unsafe_get worker_tasks w in
    for i = 0 to Array.length mine - 1 do
      let tid = Array.unsafe_get mine i in
      let t0 = Monotonic.now () in
      (Array.unsafe_get code tid).Bb.eval ();
      Array.unsafe_set task_seconds tid (Monotonic.now () -. t0)
    done
  in
  (* The instrumented job only exists when a fault plan is supplied, so
     a fault-free executor carries no chaos branches at all on its hot
     path.  [round_box] is a plain write on the supervisor before the
     round, published to the workers by the pool's generation atomics. *)
  let job =
    match fault with
    | None -> plain_job
    | Some plan ->
        fun w ->
          let round = Array.unsafe_get round_box 0 in
          let mine = Array.unsafe_get worker_tasks w in
          for i = 0 to Array.length mine - 1 do
            let tid = Array.unsafe_get mine i in
            let t0 = Monotonic.now () in
            (Array.unsafe_get code tid).Bb.eval ();
            Array.unsafe_set task_seconds tid (Monotonic.now () -. t0);
            let p = Om_guard.Fault_plan.task_poison plan ~round ~task:tid in
            if p <> 0. then
              (* Overwrite every slot the task owns, exactly like a
                 genuinely non-finite task. *)
              (Array.unsafe_get code tid).Bb.poison p
          done;
          let d = Om_guard.Fault_plan.delay_micros plan ~round ~worker:w in
          if d > 0 then begin
            let until = Monotonic.now () +. (float_of_int d *. 1e-6) in
            while Monotonic.now () < until do
              Domain.cpu_relax ()
            done
          end
  in
  let spawn_fail =
    match fault with
    | None -> None
    | Some plan ->
        Some (fun w -> Om_guard.Fault_plan.spawn_should_fail plan ~worker:w)
  in
  let pool = Domain_pool.create ?barrier_deadline ?spawn_fail ~job nworkers in
  {
    pool;
    compiled;
    tasks;
    nworkers;
    worker_tasks;
    task_seconds;
    task_costs = desc.task_flops;
    live = Array.make nworkers true;
    round_box;
    fault;
    stats = Round_stats.create ~nworkers;
    semidyn;
    shares = Array.make ntasks 0.;
    scratch = [| 0. |];
  }

let set_assignment t assignment =
  let ntasks = Array.length t.compiled.Bb.tasks in
  let slices =
    slices_of ~who:"Par_exec.set_assignment" ~nworkers:t.nworkers ~ntasks
      assignment
  in
  (* Swap the slices into the array the worker job closures capture; no
     domain is respawned.  Must only be called between rounds (i.e. from
     the supervisor, never concurrently with [rhs_fn]). *)
  Array.blit slices 0 t.worker_tasks 0 t.nworkers

(* The one reassignment of the executor, shared by a drop and a
   semi-dynamic reschedule: LPT of the current cost estimates (the
   rescheduler's, else the descriptor's) over the live workers only,
   mapped back to worker ids.  A dropped worker therefore keeps its
   empty slice for the rest of the run. *)
let reassign t =
  let live_ids =
    Array.of_seq (Seq.filter (Array.get t.live) (Seq.init t.nworkers Fun.id))
  in
  let costs =
    match t.semidyn with None -> t.task_costs | Some sd -> Sd.estimates sd
  in
  let sched =
    Om_sched.Lpt.schedule ~costs t.tasks ~nprocs:(Array.length live_ids)
  in
  set_assignment t (Array.map (Array.get live_ids) sched.assignment)

(* Degradation ladder: give [w] an empty slice and redistribute every
   task over the remaining live workers.  The pool itself is untouched —
   the dead worker's domain stays in the barrier with nothing to do, so
   shutdown still joins everything — and because tasks write disjoint
   slots and the epilogue runs on the supervisor, the trajectory stays
   bit-identical across the reassignment. *)
let drop_worker t w =
  if w < 0 || w >= t.nworkers then
    invalid_arg "Par_exec.drop_worker: worker id out of range";
  if not t.live.(w) then invalid_arg "Par_exec.drop_worker: already dropped";
  if live_workers t <= 1 then
    invalid_arg "Par_exec.drop_worker: cannot drop the last live worker";
  t.live.(w) <- false;
  reassign t

let rhs_fn t time y ydot =
  let c = t.compiled in
  c.Bb.set_state time y;
  t.round_box.(0) <- Domain_pool.rounds t.pool + 1;
  Domain_pool.round t.pool;
  c.Bb.run_epilogue ();
  Array.blit c.Bb.out 0 ydot 0 c.Bb.dim;
  Round_stats.observe_round t.stats
    ~timing:(Domain_pool.round_timing t.pool)
    ~compute:(Domain_pool.compute_seconds t.pool);
  match t.semidyn with
  | None -> ()
  | Some sd ->
      (* Normalise the measured per-task seconds into shares of the
         round.  Summing through the pre-allocated scratch slot keeps
         this allocation-free (a float ref would box on every update;
         a float accumulator argument would box at each call). *)
      let ts = t.task_seconds in
      let n = Array.length ts in
      t.scratch.(0) <- 0.;
      for i = 0 to n - 1 do
        t.scratch.(0) <- t.scratch.(0) +. Array.unsafe_get ts i
      done;
      let sum = t.scratch.(0) in
      if sum > 0. then begin
        let inv = 1. /. sum in
        for i = 0 to n - 1 do
          Array.unsafe_set t.shares i (Array.unsafe_get ts i *. inv)
        done;
        let before = Sd.reschedule_count sd in
        Sd.observe sd t.shares;
        if Sd.reschedule_count sd > before then begin
          let t0 = Monotonic.now () in
          reassign t;
          Round_stats.note_reschedule t.stats
            ~seconds:(Monotonic.now () -. t0)
        end
      end

let shutdown t = Domain_pool.shutdown t.pool

let with_executor ?barrier_deadline ?fault ?semidynamic ~nworkers ~tasks desc
    compiled f =
  let t =
    create ?barrier_deadline ?fault ?semidynamic ~nworkers ~tasks desc
      compiled
  in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
