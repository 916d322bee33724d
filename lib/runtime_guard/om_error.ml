type t =
  | Nonfinite_output of {
      slot : int;
      equation : string;
      value : float;
      time : float;
    }
  | Worker_stall of { worker : int; round : int; waited_s : float }
  | Spawn_failure of { worker : int; nworkers : int; reason : string }
  | Barrier_timeout of { round : int; missing : int; deadline_s : float }
  | Worker_exception of { worker : int; round : int; detail : string }
  | Newton_failure of { time : float; iterations : int }
  | Step_failure of {
      solver : string;
      time : float;
      step : float;
      retries : int;
      reason : string;
    }
  | Cancelled of { job : string; reason : string }
  | Deadline_exceeded of { job : string; deadline_s : float; elapsed_s : float }

exception Error of t

let error e = raise (Error e)

(* Solvers answer retryable faults with same-step retry then step-size
   backoff; a cancellation or deadline overrun must instead abort the
   integration immediately — retrying cannot unexpire a deadline. *)
let retryable = function
  | Cancelled _ | Deadline_exceeded _ -> false
  | Nonfinite_output _ | Worker_stall _ | Spawn_failure _ | Barrier_timeout _
  | Worker_exception _ | Newton_failure _ | Step_failure _ ->
      true

(* Job-level classification, one level up from the step ladder: when a
   whole integration has failed, is re-running the job from scratch a
   plausible recovery?  Infrastructure faults (stalls, spawn failures,
   worker crashes, barrier overruns) are transient by nature, and a
   [Step_failure] is the step ladder's summary of whatever fault
   exhausted its budget — under chaos injection the next attempt draws a
   fresh plan, so the serve layer re-enqueues these with backoff.
   Deterministic verdicts about the model itself (a non-finite equation,
   a divergent Newton iteration) and the non-retryable envelope faults
   (cancellation, deadline) would fail identically every time. *)
let job_retryable = function
  | Worker_stall _ | Spawn_failure _ | Barrier_timeout _ | Worker_exception _
  | Step_failure _ ->
      true
  | Nonfinite_output _ | Newton_failure _ | Cancelled _ | Deadline_exceeded _
    ->
      false

(* Render the float with %h only when it is non-finite garbage worth
   quoting exactly; %g otherwise keeps messages readable (and stable for
   the cram tests). *)
let value_str v =
  if Float.is_nan v then "nan"
  else if v = Float.infinity then "inf"
  else if v = Float.neg_infinity then "-inf"
  else Printf.sprintf "%g" v

let to_string = function
  | Nonfinite_output { slot; equation; value; time } ->
      Printf.sprintf "non-finite RHS output %s in %s (state slot %d) at t=%g"
        (value_str value) equation slot time
  | Worker_stall { worker; round; waited_s } ->
      Printf.sprintf "worker %d stalled in round %d (waited %.4fs)" worker
        round waited_s
  | Spawn_failure { worker; nworkers; reason } ->
      Printf.sprintf "failed to spawn worker domain %d of %d: %s" worker
        nworkers reason
  | Barrier_timeout { round; missing; deadline_s } ->
      Printf.sprintf
        "round %d barrier timed out after %.4fs with %d worker(s) missing"
        round deadline_s missing
  | Worker_exception { worker; round; detail } ->
      Printf.sprintf "worker %d raised in round %d: %s" worker round detail
  | Newton_failure { time; iterations } ->
      Printf.sprintf "Newton iteration failed to converge at t=%g (%d iters)"
        time iterations
  | Step_failure { solver; time; step; retries; reason } ->
      Printf.sprintf "%s step failed at t=%g (h=%g) after %d retries: %s"
        solver time step retries reason
  | Cancelled { job; reason } ->
      Printf.sprintf "job %s cancelled: %s" job reason
  | Deadline_exceeded { job; deadline_s; elapsed_s } ->
      Printf.sprintf "job %s exceeded its %.3fs deadline (%.3fs elapsed)" job
        deadline_s elapsed_s

let pp ppf e = Fmt.string ppf (to_string e)

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Om_guard.Om_error.Error: %s" (to_string e))
    | _ -> None)

type degradation = {
  at_round : int;
  worker : int;
  remaining : int;
  cause : t;
}

let pp_degradation ppf d =
  let live =
    if d.remaining = 0 then "sequential"
    else Printf.sprintf "%d live worker(s)" d.remaining
  in
  if d.worker < 0 then
    Fmt.pf ppf "round %d: no worker dropped, %s (%a)" d.at_round live pp
      d.cause
  else
    Fmt.pf ppf "round %d: dropped worker %d -> %s (%a)" d.at_round d.worker
      live pp d.cause
