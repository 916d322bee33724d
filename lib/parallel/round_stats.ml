(* Per-worker round telemetry for the real executor.

   All steady-state accumulation happens through float arrays: a record
   mixing floats with other fields stores its float fields boxed, so a
   [mutable seconds : float] field would allocate on every update
   (non-flambda OCaml).  Scalar accumulators therefore live in the
   [acc] array under the named indices below, and [observe_round] reads
   the round duration out of the caller's 1-slot [timing] buffer
   instead of taking a [float] argument (fresh float arguments box at
   call boundaries). *)

type t = {
  nworkers : int;
  compute : float array; (* per-worker compute seconds, total *)
  wait : float array; (* per-worker barrier-wait seconds, total *)
  acc : float array; (* scalar accumulators, see indices below *)
  mutable rounds : int;
  mutable reschedules : int;
}

(* acc indices *)
let i_round_seconds = 0 (* total wall time of all rounds *)
let i_barrier_seconds = 1 (* total round time minus critical-path compute *)
let i_resched_seconds = 2 (* supervisor time rebuilding schedules *)
let i_scratch = 3 (* per-call scratch (max-compute of the round) *)
let n_acc = 4

let create ~nworkers =
  if nworkers < 1 then invalid_arg "Round_stats.create: nworkers < 1";
  {
    nworkers;
    compute = Array.make nworkers 0.;
    wait = Array.make nworkers 0.;
    acc = Array.make n_acc 0.;
    rounds = 0;
    reschedules = 0;
  }

let observe_round t ~timing ~compute =
  if Array.length compute <> t.nworkers then
    invalid_arg "Round_stats.observe_round: compute length mismatch";
  let dur = Array.unsafe_get timing 0 in
  t.rounds <- t.rounds + 1;
  t.acc.(i_round_seconds) <- t.acc.(i_round_seconds) +. dur;
  t.acc.(i_scratch) <- 0.;
  for w = 0 to t.nworkers - 1 do
    let c = Array.unsafe_get compute w in
    Array.unsafe_set t.compute w (Array.unsafe_get t.compute w +. c);
    if c > t.acc.(i_scratch) then t.acc.(i_scratch) <- c;
    (* The worker's job interval lies inside the supervisor's round
       interval, so the gap is non-negative up to clock granularity. *)
    let gap = dur -. c in
    if gap > 0. then
      Array.unsafe_set t.wait w (Array.unsafe_get t.wait w +. gap)
  done;
  let barrier = dur -. t.acc.(i_scratch) in
  if barrier > 0. then
    t.acc.(i_barrier_seconds) <- t.acc.(i_barrier_seconds) +. barrier

let note_reschedule t ~seconds =
  t.reschedules <- t.reschedules + 1;
  t.acc.(i_resched_seconds) <- t.acc.(i_resched_seconds) +. seconds

let rounds t = t.rounds
let reschedules t = t.reschedules
let round_seconds t = t.acc.(i_round_seconds)
let barrier_seconds t = t.acc.(i_barrier_seconds)
let reschedule_seconds t = t.acc.(i_resched_seconds)
let worker_compute t = Array.copy t.compute
let worker_wait t = Array.copy t.wait

let utilization t =
  let total = t.acc.(i_round_seconds) in
  if t.rounds = 0 || total <= 0. then 1.
  else
    Array.fold_left ( +. ) 0. t.compute /. (float_of_int t.nworkers *. total)

