(* Ensemble integration: one solver loop advancing a batch of member
   trajectories of the same ODE system (differing in initial state /
   promoted parameters) through a batched RHS.

   The fixed-step RK4 driver advances every member with the same step
   sequence, so each member's trajectory is bitwise identical to a
   scalar [Rk.integrate_fixed Rk.rk4] run of the same per-lane RHS.

   The adaptive RKF45 driver steps every lane on its own, as
   Atanassov's integrator adapts the step of each integration rather
   than of a batch: a lane carries its own time, next step and attempt
   count.  One attempt runs the six stages of every live lane, each
   with its own step, as one batched RHS call per stage over the live
   range; then each lane accepts or rejects and resizes its step with
   exactly [Rk.rkf45]'s controller (its tableau, WRMS error weights and
   step factor).  So a member's trajectory, step count and rejection
   count are bitwise those of a scalar [Rk.rkf45] run of its lane,
   whatever else shares the batch.  A lane that reaches [tend] swaps
   places with the last live lane, so the live lanes stay the range
   [0, live).  Attempt rounds last as long as the slowest member; a
   finished member costs nothing after its last step.

   State is SoA ([y.(i).(lane)]) like {!Om_expr.Vm_batch}; swapping
   lanes copies floats bitwise, and [perm] tracks which member lives in
   which lane. *)

type brhs =
  times:float array ->
  y:float array array ->
  ydot:float array array ->
  lo:int ->
  hi:int ->
  unit

type t = {
  dim : int;
  width : int;
  f : brhs;
  y : float array array; (* dim x width, lane-indexed *)
  perm : int array; (* lane -> member *)
  times : float array; (* per-lane stage-time buffer *)
  k : float array array array; (* 6 stages x dim x width *)
  ytmp : float array array; (* dim x width *)
  y5 : float array array; (* dim x width *)
  (* RKF45 controller state, lane-indexed *)
  lane_t : float array;
  lane_h : float array; (* next step; this attempt's step once clipped *)
  lane_attempts : int array;
  (* telemetry, member-indexed *)
  steps : int array;
  rejected : int array;
  rhs_evals : int array;
  mutable rhs_batches : int;
  (* recording (member-indexed, reversed) *)
  mutable record : bool;
  mts : float list array;
  mys : float array list array;
}

type report = {
  final : float array array; (* member-major: [final.(m).(i)] *)
  steps : int array;
  rejected : int array;
  rhs_evals : int array;
  rhs_batches : int;
  trajectories : Odesys.trajectory array option;
}

let create ~dim ~f y0 =
  let width = Array.length y0 in
  if width < 1 then invalid_arg "Ensemble.create: empty batch";
  if dim < 1 then invalid_arg "Ensemble.create: dim < 1";
  Array.iter
    (fun v ->
      if Array.length v <> dim then
        invalid_arg "Ensemble.create: member state length mismatch")
    y0;
  {
    dim;
    width;
    f;
    y = Array.init dim (fun i -> Array.init width (fun m -> y0.(m).(i)));
    perm = Array.init width (fun m -> m);
    times = Array.make width 0.;
    k = Array.init 6 (fun _ -> Array.init dim (fun _ -> Array.make width 0.));
    ytmp = Array.init dim (fun _ -> Array.make width 0.);
    y5 = Array.init dim (fun _ -> Array.make width 0.);
    lane_t = Array.make width 0.;
    lane_h = Array.make width 0.;
    lane_attempts = Array.make width 0;
    steps = Array.make width 0;
    rejected = Array.make width 0;
    rhs_evals = Array.make width 0;
    rhs_batches = 0;
    record = false;
    mts = Array.make width [];
    mys = Array.make width [];
  }

(* Record an accepted point for the member in lane [j]. *)
let record_lane e t j =
  if e.record then begin
    let m = e.perm.(j) in
    e.mts.(m) <- t :: e.mts.(m);
    e.mys.(m) <- Array.init e.dim (fun i -> e.y.(i).(j)) :: e.mys.(m)
  end

let start_recording e t0 =
  e.record <- true;
  for j = 0 to e.width - 1 do
    record_lane e t0 j
  done

let report ?trajectories e =
  let final = Array.make_matrix e.width e.dim 0. in
  for j = 0 to e.width - 1 do
    let m = e.perm.(j) in
    for i = 0 to e.dim - 1 do
      final.(m).(i) <- e.y.(i).(j)
    done
  done;
  {
    final;
    steps = e.steps;
    rejected = e.rejected;
    rhs_evals = e.rhs_evals;
    rhs_batches = e.rhs_batches;
    trajectories;
  }

let trajectories_of e =
  Array.init e.width (fun m ->
      {
        Odesys.ts = Array.of_list (List.rev e.mts.(m));
        states = Array.of_list (List.rev e.mys.(m));
      })

(* ---- fixed-step RK4, shared step sequence ---- *)

let rk4 ?(record = false) e ~t0 ~tend ~h =
  if h <= 0. then invalid_arg "Ensemble.rk4: nonpositive step";
  if record then start_recording e t0;
  let lo = 0 and hi = e.width in
  let n = e.dim in
  let t = ref t0 in
  while !t < tend -. 1e-12 do
    let h' = Float.min h (tend -. !t) in
    (* Stage arithmetic is the scalar stepper's, per lane:
       axpy [y +. (a *. k)] and the same combine expression. *)
    Array.fill e.times lo (hi - lo) !t;
    e.f ~times:e.times ~y:e.y ~ydot:e.k.(0) ~lo ~hi;
    let half = h' /. 2. in
    for i = 0 to n - 1 do
      let yi = e.y.(i) and yt = e.ytmp.(i) and k1 = e.k.(0).(i) in
      for j = lo to hi - 1 do
        yt.(j) <- yi.(j) +. (half *. k1.(j))
      done
    done;
    Array.fill e.times lo (hi - lo) (!t +. (h' /. 2.));
    e.f ~times:e.times ~y:e.ytmp ~ydot:e.k.(1) ~lo ~hi;
    for i = 0 to n - 1 do
      let yi = e.y.(i) and yt = e.ytmp.(i) and k2 = e.k.(1).(i) in
      for j = lo to hi - 1 do
        yt.(j) <- yi.(j) +. (half *. k2.(j))
      done
    done;
    e.f ~times:e.times ~y:e.ytmp ~ydot:e.k.(2) ~lo ~hi;
    for i = 0 to n - 1 do
      let yi = e.y.(i) and yt = e.ytmp.(i) and k3 = e.k.(2).(i) in
      for j = lo to hi - 1 do
        yt.(j) <- yi.(j) +. (h' *. k3.(j))
      done
    done;
    Array.fill e.times lo (hi - lo) (!t +. h');
    e.f ~times:e.times ~y:e.ytmp ~ydot:e.k.(3) ~lo ~hi;
    for i = 0 to n - 1 do
      let yi = e.y.(i) in
      let k1 = e.k.(0).(i)
      and k2 = e.k.(1).(i)
      and k3 = e.k.(2).(i)
      and k4 = e.k.(3).(i) in
      for j = lo to hi - 1 do
        yi.(j) <-
          yi.(j)
          +. (h' /. 6.
              *. (k1.(j) +. (2. *. k2.(j)) +. (2. *. k3.(j)) +. k4.(j)))
      done
    done;
    e.rhs_batches <- e.rhs_batches + 4;
    t := !t +. h';
    for j = lo to hi - 1 do
      let m = e.perm.(j) in
      e.steps.(m) <- e.steps.(m) + 1;
      e.rhs_evals.(m) <- e.rhs_evals.(m) + 4;
      record_lane e !t j
    done
  done;
  report e ?trajectories:(if record then Some (trajectories_of e) else None)

(* ---- adaptive RKF45, every lane on its own ---- *)

(* Exchange lanes [a] and [b]: state column, controller state and
   member. *)
let swap_lanes e a b =
  let swapf (v : float array) =
    let x = v.(a) in
    v.(a) <- v.(b);
    v.(b) <- x
  in
  let swapi (v : int array) =
    let x = v.(a) in
    v.(a) <- v.(b);
    v.(b) <- x
  in
  Array.iter swapf e.y;
  swapf e.lane_t;
  swapf e.lane_h;
  swapi e.lane_attempts;
  swapi e.perm

let rkf45 ?(record = false) ?(atol = 1e-8) ?(rtol = 1e-6) ?h0
    ?(max_steps = 1_000_000) e ~t0 ~tend =
  let n = e.dim in
  let span = tend -. t0 in
  if span <= 0. then invalid_arg "Ensemble.rkf45: tend <= t0";
  if record then start_recording e t0;
  Array.fill e.lane_t 0 e.width t0;
  Array.fill e.lane_h 0 e.width
    (match h0 with Some h -> h | None -> span /. 100.);
  Array.fill e.lane_attempts 0 e.width 0;
  let live = ref e.width in
  (* Move the live lanes that have reached [tend] past the live range. *)
  let retire () =
    let j = ref 0 in
    while !j < !live do
      if e.lane_t.(!j) < tend -. 1e-12 then incr j
      else begin
        decr live;
        swap_lanes e !j !live
      end
    done
  in
  retire ();
  while !live > 0 do
    let hi = !live in
    for j = 0 to hi - 1 do
      let attempts = e.lane_attempts.(j) + 1 in
      e.lane_attempts.(j) <- attempts;
      if attempts > max_steps then
        Om_guard.Om_error.(
          error
            (Step_failure
               {
                 solver = "rkf45-ensemble";
                 time = e.lane_t.(j);
                 step = e.lane_h.(j);
                 retries = 0;
                 reason = "step budget exhausted";
               }));
      e.lane_h.(j) <- Float.min e.lane_h.(j) (tend -. e.lane_t.(j))
    done;
    (* Six stages, then the 5th-order solution: per lane the operations
       and their order are Rk.rkf45's, a running sum kept in the
       destination row. *)
    let hs = e.lane_h in
    for s = 0 to 5 do
      let a_s = Rk.rkf_a.(s) in
      for i = 0 to n - 1 do
        let yt = e.ytmp.(i) and yi = e.y.(i) in
        for j = 0 to hi - 1 do
          yt.(j) <- yi.(j)
        done;
        for q = 0 to s - 1 do
          let a = a_s.(q) and kq = e.k.(q).(i) in
          for j = 0 to hi - 1 do
            yt.(j) <- yt.(j) +. (hs.(j) *. a *. kq.(j))
          done
        done
      done;
      let c = Rk.rkf_c.(s) in
      for j = 0 to hi - 1 do
        e.times.(j) <- e.lane_t.(j) +. (c *. hs.(j))
      done;
      e.f ~times:e.times ~y:e.ytmp ~ydot:e.k.(s) ~lo:0 ~hi
    done;
    e.rhs_batches <- e.rhs_batches + 6;
    (* The stage input rows are free now: [ytmp] takes each lane's error
       estimate, summed like y5. *)
    for i = 0 to n - 1 do
      let yi = e.y.(i) and y5i = e.y5.(i) and erri = e.ytmp.(i) in
      for j = 0 to hi - 1 do
        y5i.(j) <- yi.(j);
        erri.(j) <- 0.
      done;
      for s = 0 to 5 do
        let b = Rk.rkf_b5.(s) and ks = e.k.(s).(i) in
        let d = b -. Rk.rkf_b4.(s) in
        for j = 0 to hi - 1 do
          let h = hs.(j) in
          y5i.(j) <- y5i.(j) +. (h *. b *. ks.(j));
          erri.(j) <- erri.(j) +. (h *. d *. ks.(j))
        done
      done
    done;
    (* Each lane's WRMS error and verdict. *)
    for j = 0 to hi - 1 do
      let h = hs.(j) and m = e.perm.(j) in
      e.rhs_evals.(m) <- e.rhs_evals.(m) + 6;
      let acc = ref 0. in
      for i = 0 to n - 1 do
        let w =
          atol
          +. (rtol *. Float.max (Float.abs e.y.(i).(j)) (Float.abs e.y5.(i).(j)))
        in
        let r = e.ytmp.(i).(j) /. w in
        acc := !acc +. (r *. r)
      done;
      let err = Float.sqrt (!acc /. float_of_int n) in
      if err <= 1. then begin
        let t1 = e.lane_t.(j) +. h in
        e.lane_t.(j) <- t1;
        for i = 0 to n - 1 do
          e.y.(i).(j) <- e.y5.(i).(j)
        done;
        e.steps.(m) <- e.steps.(m) + 1;
        record_lane e t1 j
      end
      else e.rejected.(m) <- e.rejected.(m) + 1;
      e.lane_h.(j) <- h *. Rk.rkf_step_factor err
    done;
    retire ()
  done;
  report e ?trajectories:(if record then Some (trajectories_of e) else None)
