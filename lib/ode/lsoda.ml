type mode = Adams_mode | Bdf_mode

type result = {
  trajectory : Odesys.trajectory;
  switches : (float * mode) list;
  final_mode : mode;
}

(* Local Lipschitz estimate ||f(a) - f(b)|| / ||a - b||. *)
let lipschitz fa fb ya yb =
  let dy = Array.map2 ( -. ) ya yb in
  let df = Array.map2 ( -. ) fa fb in
  let ndy = Linalg.norm2 dy in
  if ndy < 1e-300 then 0. else Linalg.norm2 df /. ndy

let error_weights atol rtol a b =
  Array.init (Array.length a) (fun i ->
      atol +. (rtol *. Float.max (Float.abs a.(i)) (Float.abs b.(i))))

(* Accepted steps at the stability bound before switching to BDF; BDF
   switches back after twice as many comfortably inside it. *)
let stiffness_window = 5

let integrate ?(atol = 1e-8) ?(rtol = 1e-6) ?h0 ?(max_steps = 2_000_000)
    ?(max_retries = 8) ?jac_mode (sys : Odesys.t) ~t0 ~y0 ~tend =
  let n = sys.dim in
  (* The Jacobian plan (and its sparse workspace) is resolved lazily on
     the first BDF attempt: purely non-stiff runs never pay for it. *)
  let jplan = lazy (Jacobian.plan ?jac_mode sys) in
  let span = tend -. t0 in
  if span <= 0. then invalid_arg "Lsoda.integrate: tend <= t0";
  let h = ref (match h0 with Some h -> h | None -> span /. 1000.) in
  let h_min = span *. 1e-14 in
  let mode = ref Adams_mode in
  let switches = ref [] in
  let t = ref t0 in
  let y = ref (Array.copy y0) in
  let f_now = ref (Odesys.rhs sys t0 y0) in
  (* One step of history for the order-2 formulas. *)
  let y_prev = ref None in
  let f_prev = ref None in
  let h_prev = ref !h in
  let ts = ref [ t0 ] and ys = ref [ Array.copy y0 ] in
  let stiff_score = ref 0 in
  let nonstiff_score = ref 0 in
  let cooldown = ref 0 in
  let steps = ref 0 in
  let switch_to m =
    if !mode <> m then begin
      mode := m;
      switches := (!t, m) :: !switches;
      stiff_score := 0;
      nonstiff_score := 0;
      (* Hysteresis: forbid another switch for a while, otherwise the
         driver thrashes on problems that ride the stiffness boundary. *)
      cooldown := 25;
      (* Restart as a one-step method after a switch. *)
      y_prev := None;
      f_prev := None
    end
  in
  let accept h_used y_new f_new =
    if !cooldown > 0 then decr cooldown;
    y_prev := Some !y;
    f_prev := Some !f_now;
    h_prev := h_used;
    t := !t +. h_used;
    y := y_new;
    f_now := f_new;
    sys.counters.steps <- sys.counters.steps + 1;
    ts := !t :: !ts;
    ys := Array.copy y_new :: !ys
  in
  (* --- One attempted Adams (ABM2 PECE) step; returns error measure. --- *)
  let adams_attempt h' =
    let r = h' /. !h_prev in
    let pred =
      match !f_prev with
      | Some fp ->
          (* Variable-step AB2 predictor. *)
          Array.init n (fun i ->
              !y.(i)
              +. (h'
                  *. (((1. +. (r /. 2.)) *. !f_now.(i))
                      -. (r /. 2. *. fp.(i)))))
      | None -> Array.init n (fun i -> !y.(i) +. (h' *. !f_now.(i)))
    in
    let fpred = Odesys.rhs sys (!t +. h') pred in
    (* Trapezoidal corrector. *)
    let corr =
      Array.init n (fun i ->
          !y.(i) +. (h' /. 2. *. (!f_now.(i) +. fpred.(i))))
    in
    let fcorr = Odesys.rhs sys (!t +. h') corr in
    let diff = Array.map2 ( -. ) corr pred in
    let weights = error_weights atol rtol !y corr in
    (* Milne estimate: for the AB2/AM2 pair the local error of the
       corrector is about 1/6 of the predictor-corrector gap. *)
    let err = Linalg.wrms_norm diff weights /. 6. in
    (* Stiffness probe: the predictor-corrector gap points along the
       dominant (stiffest) eigendirection, so this difference quotient
       approximates the magnitude of the stiff eigenvalue. *)
    let l = lipschitz fpred fcorr pred corr in
    (corr, fcorr, l, err)
  in
  (* --- One attempted BDF step (order 2 when history exists). --- *)
  let bdf_attempt h' =
    let t_next = !t +. h' in
    let pred = Array.init n (fun i -> !y.(i) +. (h' *. !f_now.(i))) in
    let alpha0, rhs_const =
      match !y_prev with
      | Some yp ->
          let tau = h' /. !h_prev in
          let alpha0 = (1. +. (2. *. tau)) /. (1. +. tau) in
          let c1 = 1. +. tau in
          let c2 = Float.neg (tau *. tau) /. (1. +. tau) in
          ( alpha0,
            Array.init n (fun i -> (c1 *. !y.(i)) +. (c2 *. yp.(i))) )
      | None -> (1., Array.copy !y)
    in
    match
      Bdf.solve_implicit_stage (Lazy.force jplan) sys ~tol:1e-8
        ~max_iter:12 ~t_next ~beta_h:h' ~rhs_const ~alpha0 ~y_guess:pred
    with
    | exception Om_guard.Om_error.Error (Om_guard.Om_error.Newton_failure _)
      ->
        None
    | y_new ->
        let f_new = Odesys.rhs sys t_next y_new in
        let diff = Array.map2 ( -. ) y_new pred in
        let weights = error_weights atol rtol !y y_new in
        (* The explicit-Euler predictor gap overestimates the BDF2 error;
           the 1/3 factor matches the constant-step error constants. *)
        let err = Linalg.wrms_norm diff weights /. 3. in
        (* Same stiff-eigendirection probe as the Adams path. *)
        let f_pred = Odesys.rhs sys t_next pred in
        let l = lipschitz f_pred f_new pred y_new in
        Some (y_new, f_new, l, err)
  in
  (* Consecutive guarded-fault retries at the current time; reset by any
     attempt that runs to completion (accepted or error-rejected). *)
  let consec = ref 0 in
  let step_failure step retries reason =
    Om_guard.Om_error.(
      error (Step_failure { solver = "lsoda"; time = !t; step; retries; reason }))
  in
  (* Backoff ladder shared by both modes: a guarded runtime fault inside
     an attempt is retried at the same step first (transient faults —
     injected poisons fire once — then recover bitwise-identically), then
     with halved steps, bounded by [max_retries]. *)
  let retry_fault h' cause =
    (* Cancellations and deadline overruns abort at once: retrying
       cannot unexpire a deadline (Om_error.retryable). *)
    if not (Om_guard.Om_error.retryable cause) then
      Om_guard.Om_error.error cause;
    sys.counters.retries <- sys.counters.retries + 1;
    incr consec;
    if !consec > max_retries then
      step_failure h' (!consec - 1) (Om_guard.Om_error.to_string cause);
    if !consec > 1 then h := h' /. 2.
  in
  while !t < tend -. 1e-12 do
    incr steps;
    if !steps > max_steps then
      step_failure !h sys.counters.retries "step budget exhausted";
    if !h < h_min then
      step_failure !h sys.counters.retries "step size underflow";
    let h' = Float.min !h (tend -. !t) in
    match !mode with
    | Adams_mode -> (
        match adams_attempt h' with
        | exception Om_guard.Om_error.Error cause -> retry_fault h' cause
        | corr, fcorr, l, err ->
            consec := 0;
            if err <= 1. then begin
              (* Stiffness monitor: the error-controlled step wants to grow
                 but h·L pins us at the stability boundary. *)
              if h' *. l > 0.8 then incr stiff_score
              else if h' *. l < 0.5 then stiff_score := 0;
              accept h' corr fcorr;
              if !stiff_score >= stiffness_window && !cooldown = 0 then
                switch_to Bdf_mode
            end
            else sys.counters.rejected <- sys.counters.rejected + 1;
            let factor =
              if err = 0. then 4.
              else
                Float.min 4.
                  (Float.max 0.1 (0.9 /. Float.sqrt (Float.sqrt err)))
            in
            (* Never let the Adams step grow far past the stability bound;
               LSODA caps the non-stiff step similarly. *)
            h := h' *. factor)
    | Bdf_mode -> (
        match bdf_attempt h' with
        | exception Om_guard.Om_error.Error cause -> retry_fault h' cause
        | None ->
            (* Newton failure: retry with a smaller step. *)
            consec := 0;
            sys.counters.rejected <- sys.counters.rejected + 1;
            h := h' /. 4.
        | Some (y_new, f_new, l, err) ->
            consec := 0;
            if err <= 1. then begin
              if h' *. l < 0.2 then incr nonstiff_score
              else nonstiff_score := 0;
              accept h' y_new f_new;
              if !nonstiff_score >= 2 * stiffness_window && !cooldown = 0
              then switch_to Adams_mode
            end
            else sys.counters.rejected <- sys.counters.rejected + 1;
            let factor =
              if err = 0. then 4.
              else
                Float.min 4.
                  (Float.max 0.1 (0.9 /. Float.sqrt (Float.sqrt err)))
            in
            h := h' *. factor)
  done;
  {
    trajectory =
      {
        Odesys.ts = Array.of_list (List.rev !ts);
        states = Array.of_list (List.rev !ys);
      };
    switches = List.rev !switches;
    final_mode = !mode;
  }
