(* Pre-spawned worker domains with a spin-then-block round barrier.

   One round = the supervisor publishing a new generation number and
   every worker running its fixed job once.  All synchronisation is a
   pair of int atomics plus two mutex/condition pairs used only as a
   fallback when a spin budget runs out, so a steady-state round
   performs zero heap allocation on every domain.

   The generation protocol: [round] counts rounds; a worker remembers
   the last generation it served and runs its job whenever the counter
   moves (to [-1] for shutdown).  The last worker to finish bumps
   [ndone] to [nworkers] and wakes the supervisor.  Publishing the
   generation (and the shutdown marker) under [start_mutex] and
   re-checking it under the same mutex before [Condition.wait] rules
   out lost wake-ups; the atomics alone provide the happens-before
   edges that make the shared state and output arrays written before
   the round visible to the workers, and the workers' writes visible
   to the supervisor after the round. *)

type t = {
  nworkers : int;
  job : int -> unit;
  round : int Atomic.t; (* generation counter; -1 = shutdown *)
  ndone : int Atomic.t;
  start_mutex : Mutex.t;
  start_cond : Condition.t;
  done_mutex : Mutex.t;
  done_cond : Condition.t;
  deadline : float; (* barrier deadline in seconds; 0. = none *)
  compute : float array; (* per-worker job seconds of the last round *)
  timing : float array; (* timing.(0) = wall seconds of the last round *)
  arrived : int array; (* last generation each worker completed *)
  failures : exn option array; (* contained worker exceptions, per worker *)
  mutable stall : Om_guard.Om_error.t option; (* last barrier-deadline event *)
  mutable domains : unit Domain.t array;
  mutable rounds : int;
}

(* Busy-wait iterations before a worker or the supervisor blocks. *)
let max_spins = 2000

let rounds t = t.rounds
let active t = Array.length t.domains > 0
let compute_seconds t = t.compute
let round_timing t = t.timing

let worker pool w =
  let last = ref 0 in
  (* Wait for the generation to move off [!last]; spin first (cheap on
     a dedicated core), block on the condition once the budget is
     spent (mandatory when domains outnumber cores). *)
  let next_generation () =
    let rec spin budget =
      let g = Atomic.get pool.round in
      if g <> !last then g
      else if budget > 0 then begin
        Domain.cpu_relax ();
        spin (budget - 1)
      end
      else begin
        Mutex.lock pool.start_mutex;
        let rec block () =
          let g = Atomic.get pool.round in
          if g = !last then begin
            Condition.wait pool.start_cond pool.start_mutex;
            block ()
          end
          else g
        in
        let g = block () in
        Mutex.unlock pool.start_mutex;
        g
      end
    in
    spin max_spins
  in
  let rec serve () =
    let g = next_generation () in
    if g >= 0 then begin
      last := g;
      (* Time the job with the unboxed monotonic clock and store the
         delta straight into this worker's pre-allocated slot — no
         allocation on the worker in steady state.  The write is
         published to the supervisor by the [ndone] bump below.

         A raising job is contained here rather than killing the domain:
         the exception is parked in this worker's failure slot, the
         barrier still completes (every sibling and the supervisor would
         otherwise wait forever on [ndone]) and the domain keeps serving
         rounds, so the pool always joins cleanly at shutdown.  The
         supervisor re-raises the parked exception after the round. *)
      let t0 = Monotonic.now () in
      (try pool.job w with e -> pool.failures.(w) <- Some e);
      Array.unsafe_set pool.compute w (Monotonic.now () -. t0);
      Array.unsafe_set pool.arrived w g;
      if Atomic.fetch_and_add pool.ndone 1 = pool.nworkers - 1 then begin
        Mutex.lock pool.done_mutex;
        Condition.broadcast pool.done_cond;
        Mutex.unlock pool.done_mutex
      end;
      serve ()
    end
  in
  serve ()

let create ?(barrier_deadline = 0.)
    ?(spawn_fail = fun _ -> false) ~job nworkers =
  if nworkers < 1 then invalid_arg "Domain_pool.create: nworkers < 1";
  if barrier_deadline < 0. then
    invalid_arg "Domain_pool.create: barrier_deadline < 0";
  (* Injected spawn failures are checked before any domain exists, so a
     failing create leaks nothing. *)
  for w = 0 to nworkers - 1 do
    if spawn_fail w then
      Om_guard.Om_error.(
        error
          (Spawn_failure
             { worker = w; nworkers; reason = "injected spawn failure" }))
  done;
  let pool =
    {
      nworkers;
      job;
      round = Atomic.make 0;
      ndone = Atomic.make 0;
      start_mutex = Mutex.create ();
      start_cond = Condition.create ();
      done_mutex = Mutex.create ();
      done_cond = Condition.create ();
      deadline = barrier_deadline;
      compute = Array.make nworkers 0.;
      timing = Array.make 1 0.;
      arrived = Array.make nworkers 0;
      failures = Array.make nworkers None;
      stall = None;
      domains = [||];
      rounds = 0;
    }
  in
  (* A real [Domain.spawn] failure part-way through must not leak the
     domains already spawned: publish the shutdown generation, join what
     exists, then surface the typed fault. *)
  let spawned = ref [] in
  (try
     for w = 0 to nworkers - 1 do
       spawned := Domain.spawn (fun () -> worker pool w) :: !spawned
     done
   with e ->
     Mutex.lock pool.start_mutex;
     Atomic.set pool.round (-1);
     Condition.broadcast pool.start_cond;
     Mutex.unlock pool.start_mutex;
     List.iter Domain.join !spawned;
     Om_guard.Om_error.(
       error
         (Spawn_failure
            {
              worker = List.length !spawned;
              nworkers;
              reason = Printexc.to_string e;
            })));
  pool.domains <- Array.of_list (List.rev !spawned);
  pool

(* Top level (not a local closure over [pool]) so a steady-state round
   allocates nothing: a local [let rec] capturing [pool] would build a
   fresh closure block on every call. *)
let rec supervisor_wait pool budget =
  if Atomic.get pool.ndone < pool.nworkers then
    if budget > 0 then begin
      Domain.cpu_relax ();
      supervisor_wait pool (budget - 1)
    end
    else begin
      Mutex.lock pool.done_mutex;
      while Atomic.get pool.ndone < pool.nworkers do
        Condition.wait pool.done_cond pool.done_mutex
      done;
      Mutex.unlock pool.done_mutex
    end

(* Deadline-aware wait: after the spin budget, poll in short sleeps.
   Once the deadline has passed, every poll re-reads [arrived] for the
   rest of the round: several outstanding workers record a
   [Barrier_timeout], and as soon as exactly one is left the event
   becomes a [Worker_stall] naming it (workers that merely arrive late
   must not hide the one that stalled).  Reads of [arrived] are
   advisory — plain racy int reads, good enough for diagnostics.
   Detection never abandons the barrier: the supervisor still waits for
   completion (a stalled worker that eventually arrives left consistent
   output), and the caller decides whether to degrade via
   {!take_stall}.  An event from an earlier round that nobody took is
   kept as it is. *)
let supervisor_poll pool t0 =
  let attributed =
    ref (match pool.stall with None -> false | Some _ -> true)
  in
  let timed_out = ref false in
  while Atomic.get pool.ndone < pool.nworkers do
    (if (not !attributed) && Monotonic.now () -. t0 > pool.deadline then begin
       let g = Atomic.get pool.round in
       let missing = ref 0 and culprit = ref (-1) in
       for w = pool.nworkers - 1 downto 0 do
         if Array.unsafe_get pool.arrived w <> g then begin
           incr missing;
           culprit := w
         end
       done;
       if !missing = 1 then begin
         attributed := true;
         pool.stall <-
           Some
             (Om_guard.Om_error.Worker_stall
                {
                  worker = !culprit;
                  round = pool.rounds;
                  waited_s = Monotonic.now () -. t0;
                })
       end
       else if !missing > 1 && not !timed_out then begin
         timed_out := true;
         pool.stall <-
           Some
             (Om_guard.Om_error.Barrier_timeout
                {
                  round = pool.rounds;
                  missing = !missing;
                  deadline_s = pool.deadline;
                })
       end
     end);
    if Atomic.get pool.ndone < pool.nworkers then Unix.sleepf 20e-6
  done

let take_stall pool =
  let s = pool.stall in
  pool.stall <- None;
  s

(* Re-raise a contained worker exception on the supervisor.  Typed
   runtime faults pass through unchanged (they already carry their own
   attribution); anything else is wrapped so the caller learns which
   worker and round died. *)
let check_failures pool =
  for w = 0 to pool.nworkers - 1 do
    match Array.unsafe_get pool.failures w with
    | None -> ()
    | Some e -> (
        pool.failures.(w) <- None;
        match e with
        | Om_guard.Om_error.Error _ -> raise e
        | e ->
            Om_guard.Om_error.(
              error
                (Worker_exception
                   {
                     worker = w;
                     round = pool.rounds;
                     detail = Printexc.to_string e;
                   })))
  done

let round pool =
  if not (active pool) then invalid_arg "Domain_pool.round: pool is shut down";
  let t0 = Monotonic.now () in
  pool.rounds <- pool.rounds + 1;
  Atomic.set pool.ndone 0;
  Mutex.lock pool.start_mutex;
  Atomic.incr pool.round;
  Condition.broadcast pool.start_cond;
  Mutex.unlock pool.start_mutex;
  if pool.deadline > 0. then begin
    (* Spin first as usual; only fall to the polling loop (which can
       observe the deadline) if the round is genuinely slow. *)
    let rec spin budget =
      if Atomic.get pool.ndone < pool.nworkers then
        if budget > 0 then begin
          Domain.cpu_relax ();
          spin (budget - 1)
        end
        else supervisor_poll pool t0
    in
    spin max_spins
  end
  else supervisor_wait pool max_spins;
  pool.timing.(0) <- Monotonic.now () -. t0;
  check_failures pool

let shutdown pool =
  if active pool then begin
    Mutex.lock pool.start_mutex;
    Atomic.set pool.round (-1);
    Condition.broadcast pool.start_cond;
    Mutex.unlock pool.start_mutex;
    Array.iter Domain.join pool.domains;
    pool.domains <- [||]
  end
