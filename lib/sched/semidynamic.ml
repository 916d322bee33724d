type t = {
  tasks : Task.t array;
  nprocs : int;
  period : int;
  smoothing : float;
  estimates : float array;
  mutable sched : Lpt.schedule;
  mutable since_resched : int;
  mutable reschedules : int;
}

let overhead_cost_per_reschedule tasks =
  let n = float_of_int (Array.length tasks) in
  if n < 2. then n else n *. (Float.log n /. Float.log 2.)

let create ?(period = 10) ?(smoothing = 0.5) ?costs tasks ~nprocs =
  if period < 1 then invalid_arg "Semidynamic.create: period < 1";
  if smoothing <= 0. || smoothing > 1. then
    invalid_arg "Semidynamic.create: smoothing outside (0, 1]";
  let estimates =
    match costs with
    | None -> Array.map (fun t -> t.Task.cost) tasks
    | Some c ->
        if Array.length c <> Array.length tasks then
          invalid_arg "Semidynamic.create: costs length mismatch";
        Array.copy c
  in
  {
    tasks;
    nprocs;
    period;
    smoothing;
    estimates;
    sched = Lpt.schedule ?costs tasks ~nprocs;
    since_resched = 0;
    reschedules = 0;
  }

let current t = t.sched
let estimates t = Array.copy t.estimates

(* Allocation-free in the non-rescheduling case: the EWMA update runs as
   a plain for-loop over pre-allocated arrays (a closure passed to
   [Array.iteri] would allocate on every observation, which the real
   executor's zero-allocation steady-state round forbids). *)
let observe t measured =
  if Array.length measured <> Array.length t.tasks then
    invalid_arg "Semidynamic.observe: wrong measurement vector";
  let a = t.smoothing in
  let b = 1. -. a in
  for i = 0 to Array.length measured - 1 do
    Array.unsafe_set t.estimates i
      ((a *. Array.unsafe_get measured i)
      +. (b *. Array.unsafe_get t.estimates i))
  done;
  t.since_resched <- t.since_resched + 1;
  if t.since_resched >= t.period then begin
    t.since_resched <- 0;
    t.sched <- Lpt.schedule ~costs:t.estimates t.tasks ~nprocs:t.nprocs;
    t.reschedules <- t.reschedules + 1
  end

let reschedule_count t = t.reschedules
