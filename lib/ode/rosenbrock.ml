(* ROS2 (Verwer/Hundsdorfer): with gamma = 1 + 1/sqrt 2,
     (I - gamma h J) k1 = f(t, y)
     (I - gamma h J) k2 = f(t + h, y + h k1) - 2 k1
     y' = y + (3/2) h k1 + (1/2) h k2
   L-stable and second order for autonomous systems (our systems carry
   time as an ordinary input, and the method's order is preserved for
   the mildly non-autonomous RHS the models produce). *)

let gamma = 1. +. (1. /. Float.sqrt 2.)

let make_solver_with (jplan : Jacobian.plan) (sys : Odesys.t) t y h =
  let n = sys.dim in
  sys.counters.lu_factorisations <- sys.counters.lu_factorisations + 1;
  match jplan with
  | Jacobian.Sparse_plan ctx ->
      Jacobian.sparse_eval_into sys ctx t y;
      (* The ROS2 matrix is the Newton shape with alpha = 1 and
         beta = gamma*h: the dense path computes [1 - (gamma*h)*J_ii]
         with [gamma *. h] rounded first, so pass the product. *)
      Sparse.newton_assemble ctx.newton ~jac:ctx.sj ~alpha:1.
        ~beta:(gamma *. h);
      Sparse.lu_solve (Sparse.lu_factor (Sparse.newton_matrix ctx.newton))
  | Jacobian.Dense_plan ->
      let j = Linalg.make n n 0. in
      Jacobian.eval_into sys t y j;
      let m =
        Array.init n (fun i ->
            Array.init n (fun k ->
                (if i = k then 1. else 0.) -. (gamma *. h *. j.(i).(k))))
      in
      Linalg.lu_solve (Linalg.lu_factor m)

let step_with jplan (sys : Odesys.t) t y h =
  let n = sys.dim in
  let solve = make_solver_with jplan sys t y h in
  let f1 = Odesys.rhs sys t y in
  let k1 = solve f1 in
  let y2 = Array.init n (fun i -> y.(i) +. (h *. k1.(i))) in
  let f2 = Odesys.rhs sys (t +. h) y2 in
  let rhs2 = Array.init n (fun i -> f2.(i) -. (2. *. k1.(i))) in
  let k2 = solve rhs2 in
  Array.init n (fun i ->
      y.(i) +. (h *. ((1.5 *. k1.(i)) +. (0.5 *. k2.(i)))))

let step ?jac_mode (sys : Odesys.t) t y h =
  step_with (Jacobian.plan ?jac_mode sys) sys t y h

let integrate ?jac_mode ?jac_batch (sys : Odesys.t) ~t0 ~y0 ~tend ~h =
  if h <= 0. then invalid_arg "Rosenbrock.integrate: nonpositive step";
  (* One plan (and one sparse workspace) for the whole integration. *)
  let jplan = Jacobian.plan ?jac_mode ?batch:jac_batch sys in
  let ts = ref [ t0 ] and ys = ref [ Array.copy y0 ] in
  let t = ref t0 and y = ref (Array.copy y0) in
  while !t < tend -. 1e-12 do
    let h' = Float.min h (tend -. !t) in
    y := step_with jplan sys !t !y h';
    t := !t +. h';
    sys.counters.steps <- sys.counters.steps + 1;
    ts := !t :: !ts;
    ys := Array.copy !y :: !ys
  done;
  {
    Odesys.ts = Array.of_list (List.rev !ts);
    states = Array.of_list (List.rev !ys);
  }
