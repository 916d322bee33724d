type fixed_stepper =
  Odesys.t -> float -> float array -> float -> float array

let axpy n a x y =
  (* y + a*x, fresh array *)
  Array.init n (fun i -> y.(i) +. (a *. x.(i)))

let rk4 : fixed_stepper =
 fun sys t y h ->
  let n = sys.dim in
  let k1 = Odesys.rhs sys t y in
  let k2 = Odesys.rhs sys (t +. (h /. 2.)) (axpy n (h /. 2.) k1 y) in
  let k3 = Odesys.rhs sys (t +. (h /. 2.)) (axpy n (h /. 2.) k2 y) in
  let k4 = Odesys.rhs sys (t +. h) (axpy n h k3 y) in
  Array.init n (fun i ->
      y.(i) +. (h /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i))))

let integrate_fixed ?(max_retries = 8) stepper (sys : Odesys.t) ~t0 ~y0 ~tend
    ~h =
  if h <= 0. then invalid_arg "Rk.integrate_fixed: nonpositive step";
  let ts = ref [ t0 ] and ys = ref [ Array.copy y0 ] in
  let t = ref t0 and y = ref (Array.copy y0) in
  while !t < tend -. 1e-12 do
    let h' = Float.min h (tend -. !t) in
    (* Guarded advance.  The first retry re-runs the step at the {e same}
       size: a transient fault (an injected poison fires at most once)
       re-evaluates to the exact same bits, so the recovered trajectory
       is Int64-identical to a fault-free run.  Only a repeated failure —
       a genuinely non-finite RHS at this (t, h) — backs off by halving,
       up to the retry budget. *)
    let rec attempt h_try retries =
      match stepper sys !t !y h_try with
      | y' -> (y', h_try)
      | exception Om_guard.Om_error.Error cause
        when not (Om_guard.Om_error.retryable cause) ->
          Om_guard.Om_error.error cause
      | exception Om_guard.Om_error.Error cause ->
          sys.counters.retries <- sys.counters.retries + 1;
          if retries >= max_retries then
            Om_guard.Om_error.(
              error
                (Step_failure
                   {
                     solver = "rk-fixed";
                     time = !t;
                     step = h_try;
                     retries;
                     reason = to_string cause;
                   }))
          else
            attempt (if retries = 0 then h_try else h_try /. 2.) (retries + 1)
    in
    let y', h_used = attempt h' 0 in
    y := y';
    t := !t +. h_used;
    sys.counters.steps <- sys.counters.steps + 1;
    ts := !t :: !ts;
    ys := !y :: !ys
  done;
  {
    Odesys.ts = Array.of_list (List.rev !ts);
    states = Array.of_list (List.rev !ys);
  }

(* Runge–Kutta–Fehlberg 4(5) coefficients. *)
let rkf_c = [| 0.; 0.25; 3. /. 8.; 12. /. 13.; 1.; 0.5 |]

let rkf_a =
  [|
    [||];
    [| 0.25 |];
    [| 3. /. 32.; 9. /. 32. |];
    [| 1932. /. 2197.; -7200. /. 2197.; 7296. /. 2197. |];
    [| 439. /. 216.; -8.; 3680. /. 513.; -845. /. 4104. |];
    [| -8. /. 27.; 2.; -3544. /. 2565.; 1859. /. 4104.; -11. /. 40. |];
  |]

let rkf_b5 =
  [| 16. /. 135.; 0.; 6656. /. 12825.; 28561. /. 56430.; -9. /. 50.; 2. /. 55. |]

let rkf_b4 = [| 25. /. 216.; 0.; 1408. /. 2565.; 2197. /. 4104.; -0.2; 0. |]

(* Standard step-size update with safety factor, clamped growth. *)
let rkf_step_factor e =
  if e = 0. then 5. else Float.min 5. (Float.max 0.2 (0.9 *. (e ** -0.2)))

let rkf45 ?(atol = 1e-8) ?(rtol = 1e-6) ?h0 ?(max_steps = 1_000_000)
    ?(max_retries = 8) (sys : Odesys.t) ~t0 ~y0 ~tend =
  let n = sys.dim in
  let span = tend -. t0 in
  if span <= 0. then invalid_arg "Rk.rkf45: tend <= t0";
  let h = ref (match h0 with Some h -> h | None -> span /. 100.) in
  let t = ref t0 and y = ref (Array.copy y0) in
  let ts = ref [ t0 ] and ys = ref [ Array.copy y0 ] in
  let k = Array.make 6 [||] in
  let steps = ref 0 in
  (* Consecutive guarded-fault retries at the current time; reset on any
     attempt that completes its six stages. *)
  let consec = ref 0 in
  while !t < tend -. 1e-12 do
    incr steps;
    if !steps > max_steps then
      Om_guard.Om_error.(
        error
          (Step_failure
             {
               solver = "rkf45";
               time = !t;
               step = !h;
               retries = sys.counters.retries;
               reason = "step budget exhausted";
             }));
    let h' = Float.min !h (tend -. !t) in
    let attempt () =
      for s = 0 to 5 do
        let ys_stage =
          Array.init n (fun i ->
              let acc = ref !y.(i) in
              for j = 0 to s - 1 do
                acc := !acc +. (h' *. rkf_a.(s).(j) *. k.(j).(i))
              done;
              !acc)
        in
        k.(s) <- Odesys.rhs sys (!t +. (rkf_c.(s) *. h')) ys_stage
      done;
      let y5 =
        Array.init n (fun i ->
            let acc = ref !y.(i) in
            for s = 0 to 5 do
              acc := !acc +. (h' *. rkf_b5.(s) *. k.(s).(i))
            done;
            !acc)
      in
      let err =
        Array.init n (fun i ->
            let acc = ref 0. in
            for s = 0 to 5 do
              acc := !acc +. (h' *. (rkf_b5.(s) -. rkf_b4.(s)) *. k.(s).(i))
            done;
            !acc)
      in
      (y5, err)
    in
    match attempt () with
    | exception Om_guard.Om_error.Error cause
      when not (Om_guard.Om_error.retryable cause) ->
        Om_guard.Om_error.error cause
    | exception Om_guard.Om_error.Error cause ->
        (* Same backoff ladder as [integrate_fixed]: retry at the same
           step first (bitwise-identical recovery from transient faults),
           then halve. *)
        sys.counters.retries <- sys.counters.retries + 1;
        incr consec;
        if !consec > max_retries then
          Om_guard.Om_error.(
            error
              (Step_failure
                 {
                   solver = "rkf45";
                   time = !t;
                   step = h';
                   retries = !consec - 1;
                   reason = to_string cause;
                 }));
        if !consec > 1 then h := h' /. 2.
    | y5, err ->
        consec := 0;
        let weights =
          Array.init n (fun i ->
              atol +. (rtol *. Float.max (Float.abs !y.(i)) (Float.abs y5.(i))))
        in
        let e = Linalg.wrms_norm err weights in
        if e <= 1. then begin
          t := !t +. h';
          y := y5;
          sys.counters.steps <- sys.counters.steps + 1;
          ts := !t :: !ts;
          ys := Array.copy y5 :: !ys
        end
        else sys.counters.rejected <- sys.counters.rejected + 1;
        h := h' *. rkf_step_factor e
  done;
  {
    Odesys.ts = Array.of_list (List.rev !ts);
    states = Array.of_list (List.rev !ys);
  }
