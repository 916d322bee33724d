let solve_implicit_stage (jplan : Jacobian.plan) (sys : Odesys.t) ~tol
    ~max_iter ~t_next ~beta_h ~rhs_const ~alpha0 ~y_guess =
  let n = sys.dim in
  (* Modified Newton: factor [alpha0*I - beta_h*J] at the predictor and
     reuse the factorisation for every iteration of this step. *)
  let solve =
    match
      Jacobian.newton_factor jplan sys t_next y_guess ~alpha:alpha0
        ~beta:beta_h
    with
    | solve -> solve
    | exception Linalg.Singular _ ->
        (* A singular Newton matrix can never converge, so it joins the
           Newton taxonomy instead of escaping as a raw linear-algebra
           exception (callers like LSODA answer [Newton_failure] with
           step reduction). *)
        Om_guard.Om_error.(
          error (Newton_failure { time = t_next; iterations = 0 }))
  in
  sys.counters.lu_factorisations <- sys.counters.lu_factorisations + 1;
  let y = Array.copy y_guess in
  let fy = Array.make n 0. in
  let rec iterate k =
    if k >= max_iter then
      Om_guard.Om_error.(
        error (Newton_failure { time = t_next; iterations = max_iter }));
    Odesys.rhs_into sys t_next y fy;
    let g =
      Array.init n (fun i ->
          (alpha0 *. y.(i)) -. (beta_h *. fy.(i)) -. rhs_const.(i))
    in
    let dy = solve g in
    sys.counters.newton_iters <- sys.counters.newton_iters + 1;
    for i = 0 to n - 1 do
      y.(i) <- y.(i) -. dy.(i)
    done;
    let scale =
      Array.init n (fun i -> 1. +. Float.abs y.(i))
    in
    if Linalg.wrms_norm dy scale > tol then iterate (k + 1)
  in
  iterate 0;
  y

(* alpha0 and history coefficients of fixed-step BDF k:
   alpha0 * y_{n+1} = sum_i coeff_i * y_{n-i} + h * f_{n+1}. *)
let formula = function
  | 1 -> (1., [| 1. |])
  | 2 -> (1.5, [| 2.; -0.5 |])
  | 3 -> (11. /. 6., [| 3.; -1.5; 1. /. 3. |])
  | k -> invalid_arg (Printf.sprintf "Bdf: unsupported order %d" k)

let integrate ?(order = 2) ?jac_mode (sys : Odesys.t) ~t0 ~y0 ~tend ~h =
  if order < 1 || order > 3 then invalid_arg "Bdf.integrate: order in 1..3";
  if h <= 0. then invalid_arg "Bdf.integrate: nonpositive step";
  (* One plan (and one sparse workspace) for the whole integration. *)
  let jplan = Jacobian.plan ?jac_mode sys in
  let n = sys.dim in
  let ts = ref [ t0 ] and ys = ref [ Array.copy y0 ] in
  (* History of accepted states, most recent first. *)
  let hist = ref [ Array.copy y0 ] in
  let t = ref t0 in
  while !t < tend -. 1e-12 do
    let h' = Float.min h (tend -. !t) in
    (* Ramp the order up as history becomes available. *)
    let k = min order (List.length !hist) in
    let alpha0, coeffs = formula k in
    let harr = Array.of_list !hist in
    let rhs_const =
      Array.init n (fun i ->
          let acc = ref 0. in
          for j = 0 to k - 1 do
            acc := !acc +. (coeffs.(j) *. harr.(j).(i))
          done;
          !acc)
    in
    let t_next = !t +. h' in
    let y =
      solve_implicit_stage jplan sys ~tol:1e-10 ~max_iter:25 ~t_next
        ~beta_h:h' ~rhs_const ~alpha0 ~y_guess:harr.(0)
    in
    t := t_next;
    sys.counters.steps <- sys.counters.steps + 1;
    ts := !t :: !ts;
    ys := Array.copy y :: !ys;
    hist :=
      y
      :: (if List.length !hist >= order then
            List.filteri (fun i _ -> i < order - 1) !hist
          else !hist)
  done;
  {
    Odesys.ts = Array.of_list (List.rev !ts);
    states = Array.of_list (List.rev !ys);
  }
