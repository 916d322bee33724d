(* ROS2 (Verwer/Hundsdorfer): with gamma = 1 + 1/sqrt 2,
     (I - gamma h J) k1 = f(t, y)
     (I - gamma h J) k2 = f(t + h, y + h k1) - 2 k1
     y' = y + (3/2) h k1 + (1/2) h k2
   L-stable and second order for autonomous systems (our systems carry
   time as an ordinary input, and the method's order is preserved for
   the mildly non-autonomous RHS the models produce). *)

let gamma = 1. +. (1. /. Float.sqrt 2.)

let step jplan (sys : Odesys.t) t y h =
  let n = sys.dim in
  sys.counters.lu_factorisations <- sys.counters.lu_factorisations + 1;
  (* The ROS2 matrix is the Newton shape with alpha = 1 and
     beta = gamma*h. *)
  let solve =
    Jacobian.newton_factor jplan sys t y ~alpha:1. ~beta:(gamma *. h)
  in
  let f1 = Odesys.rhs sys t y in
  let k1 = solve f1 in
  let y2 = Array.init n (fun i -> y.(i) +. (h *. k1.(i))) in
  let f2 = Odesys.rhs sys (t +. h) y2 in
  let rhs2 = Array.init n (fun i -> f2.(i) -. (2. *. k1.(i))) in
  let k2 = solve rhs2 in
  Array.init n (fun i ->
      y.(i) +. (h *. ((1.5 *. k1.(i)) +. (0.5 *. k2.(i)))))

let integrate ?jac_mode ?jac_batch (sys : Odesys.t) ~t0 ~y0 ~tend ~h =
  if h <= 0. then invalid_arg "Rosenbrock.integrate: nonpositive step";
  (* One plan (and one sparse workspace) for the whole integration. *)
  let jplan = Jacobian.plan ?jac_mode ?batch:jac_batch sys in
  let ts = ref [ t0 ] and ys = ref [ Array.copy y0 ] in
  let t = ref t0 and y = ref (Array.copy y0) in
  while !t < tend -. 1e-12 do
    let h' = Float.min h (tend -. !t) in
    y := step jplan sys !t !y h';
    t := !t +. h';
    sys.counters.steps <- sys.counters.steps + 1;
    ts := !t :: !ts;
    ys := Array.copy !y :: !ys
  done;
  {
    Odesys.ts = Array.of_list (List.rev !ts);
    states = Array.of_list (List.rev !ys);
  }
