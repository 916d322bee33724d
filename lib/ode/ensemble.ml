(* Lockstep ensemble integration: one solver loop advancing a batch of
   member trajectories of the same ODE system (differing in initial
   state / promoted parameters) through a batched RHS.

   The fixed-step RK4 driver advances every member with the same step
   sequence, so each member's trajectory is bitwise identical to a
   scalar [Rk.integrate_fixed Rk.rk4] run of the same per-lane RHS —
   this is the invariant the fuzz oracle checks.

   The adaptive RKF45 driver keeps the batch in lockstep with a shared
   step size and splits the group when per-member error estimates
   diverge (Atanassov's trick for integrating many nearby scenarios):
   an attempted step partitions members into passing (error <= 1) and
   failing; passing members accept and the group's next step size is
   derived from the passing members' worst error only, while the
   failing members split into a subgroup that is sub-stepped
   recursively from t to the rendezvous point t + h' and then merged
   back.  A member that is persistently stiffer than the rest therefore
   never influences the others' step sequence — their trajectories are
   bitwise identical to an ensemble run without the stiff member — and
   groups re-merge at every macro step, so fragmentation cannot
   accumulate.  At width 1 the controller reduces exactly to the scalar
   [Rk.rkf45] loop (same error weights, WRMS norm, safety factor and
   growth clamps), making batch-of-1 bitwise identical to the scalar
   adaptive solver.

   State is SoA ([y.(i).(lane)]) like {!Om_expr.Vm_batch}.  Groups are
   contiguous lane ranges: a split stably partitions the SoA columns
   (pure float copies, so bitwise-safe) and the [perm] array tracks
   which member lives in which lane. *)

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
  lane_err : float array; (* per-lane WRMS error of the last attempt *)
  scratch : float array; (* width, for column permutes *)
  iscratch : int array; (* width, partition order *)
  iscratch2 : int array; (* width, for permuting perm *)
  (* telemetry, member-indexed *)
  steps : int array;
  rejected : int array;
  rhs_evals : int array;
  mutable rhs_batches : int;
  mutable splits : int;
  mutable merges : int;
  mutable attempts : int;
  mutable max_depth : int;
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
  splits : int;
  merges : int;
  max_group_depth : int;
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
    lane_err = Array.make width 0.;
    scratch = Array.make width 0.;
    iscratch = Array.make width 0;
    iscratch2 = Array.make width 0;
    steps = Array.make width 0;
    rejected = Array.make width 0;
    rhs_evals = Array.make width 0;
    rhs_batches = 0;
    splits = 0;
    merges = 0;
    attempts = 0;
    max_depth = 0;
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
    splits = e.splits;
    merges = e.merges;
    max_group_depth = e.max_depth;
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

(* ---- adaptive RKF45 with group split/merge ---- *)

(* Runge-Kutta-Fehlberg 4(5) coefficients, same literals as Rk.rkf45. *)
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

(* Standard step-size update with safety factor, clamped growth —
   identical to the scalar controller. *)
let step_factor e =
  if e = 0. then 5. else Float.min 5. (Float.max 0.2 (0.9 *. (e ** -0.2)))

(* Stable partition of lanes [lo..hi-1]: passing lanes (error <= 1)
   first, both halves in original order, applied as a column permute to
   every live SoA row.  Float columns are copied bitwise, so the
   reordering cannot perturb any member's trajectory.  Returns the
   number of passing lanes. *)
let partition_passing e lo hi =
  let n = hi - lo in
  let idx = e.iscratch in
  let p = ref 0 in
  for j = lo to hi - 1 do
    if e.lane_err.(j) <= 1. then begin
      idx.(lo + !p) <- j;
      incr p
    end
  done;
  let npass = !p in
  for j = lo to hi - 1 do
    if not (e.lane_err.(j) <= 1.) then begin
      idx.(lo + !p) <- j;
      incr p
    end
  done;
  let apply_row row =
    let s = e.scratch in
    for q = 0 to n - 1 do
      s.(lo + q) <- row.(idx.(lo + q))
    done;
    Array.blit s lo row lo n
  in
  for i = 0 to e.dim - 1 do
    apply_row e.y.(i);
    apply_row e.y5.(i)
  done;
  apply_row e.lane_err;
  let si = e.iscratch2 in
  for q = 0 to n - 1 do
    si.(lo + q) <- e.perm.(idx.(lo + q))
  done;
  Array.blit si lo e.perm lo n;
  npass

let rkf45 ?(record = false) ?(atol = 1e-8) ?(rtol = 1e-6) ?h0
    ?(max_steps = 1_000_000) e ~t0 ~tend =
  let n = e.dim in
  let span = tend -. t0 in
  if span <= 0. then invalid_arg "Ensemble.rkf45: tend <= t0";
  if record then start_recording e t0;
  let h_init = match h0 with Some h -> h | None -> span /. 100. in
  let budget_error t h =
    Om_guard.Om_error.(
      error
        (Step_failure
           {
             solver = "rkf45-ensemble";
             time = t;
             step = h;
             retries = 0;
             reason = "step budget exhausted";
           }))
  in
  (* Advance lanes [lo..hi-1] from [t_start] to [t_goal] in lockstep,
     splitting recursively when error estimates diverge. *)
  let rec advance lo hi t_start t_goal h_start depth =
    if depth > e.max_depth then e.max_depth <- depth;
    let t = ref t_start and h = ref h_start in
    while !t < t_goal -. 1e-12 do
      e.attempts <- e.attempts + 1;
      if e.attempts > max_steps then budget_error !t !h;
      let h' = Float.min !h (t_goal -. !t) in
      (* Six stages; per lane the accumulation order matches Rk.rkf45. *)
      for s = 0 to 5 do
        let asr_ = rkf_a.(s) in
        for i = 0 to n - 1 do
          let yt = e.ytmp.(i) and yi = e.y.(i) in
          for j = lo to hi - 1 do
            let acc = ref yi.(j) in
            for q = 0 to s - 1 do
              acc := !acc +. (h' *. asr_.(q) *. e.k.(q).(i).(j))
            done;
            yt.(j) <- !acc
          done
        done;
        Array.fill e.times lo (hi - lo) (!t +. (rkf_c.(s) *. h'));
        e.f ~times:e.times ~y:e.ytmp ~ydot:e.k.(s) ~lo ~hi
      done;
      e.rhs_batches <- e.rhs_batches + 6;
      for j = lo to hi - 1 do
        let m = e.perm.(j) in
        e.rhs_evals.(m) <- e.rhs_evals.(m) + 6
      done;
      (* 5th-order solution and per-lane WRMS error, scalar formulas. *)
      for i = 0 to n - 1 do
        let yi = e.y.(i) and y5i = e.y5.(i) in
        for j = lo to hi - 1 do
          let acc = ref yi.(j) in
          for s = 0 to 5 do
            acc := !acc +. (h' *. rkf_b5.(s) *. e.k.(s).(i).(j))
          done;
          y5i.(j) <- !acc
        done
      done;
      for j = lo to hi - 1 do
        let acc = ref 0. in
        for i = 0 to n - 1 do
          let erri = ref 0. in
          for s = 0 to 5 do
            erri := !erri +. (h' *. (rkf_b5.(s) -. rkf_b4.(s)) *. e.k.(s).(i).(j))
          done;
          let w =
            atol
            +. (rtol
                *. Float.max (Float.abs e.y.(i).(j)) (Float.abs e.y5.(i).(j)))
          in
          let r = !erri /. w in
          acc := !acc +. (r *. r)
        done;
        e.lane_err.(j) <- Float.sqrt (!acc /. float_of_int n)
      done;
      let npass = ref 0 in
      for j = lo to hi - 1 do
        if e.lane_err.(j) <= 1. then incr npass
      done;
      let max_err jlo jhi =
        let m = ref 0. in
        for j = jlo to jhi - 1 do
          if e.lane_err.(j) > !m then m := e.lane_err.(j)
        done;
        !m
      in
      let accept jlo jhi t1 =
        for i = 0 to n - 1 do
          Array.blit e.y5.(i) jlo e.y.(i) jlo (jhi - jlo)
        done;
        for j = jlo to jhi - 1 do
          let m = e.perm.(j) in
          e.steps.(m) <- e.steps.(m) + 1;
          record_lane e t1 j
        done
      in
      if !npass = hi - lo then begin
        let emax = max_err lo hi in
        accept lo hi (!t +. h');
        t := !t +. h';
        h := h' *. step_factor emax
      end
      else if !npass = 0 then begin
        for j = lo to hi - 1 do
          let m = e.perm.(j) in
          e.rejected.(m) <- e.rejected.(m) + 1
        done;
        h := h' *. step_factor (max_err lo hi)
      end
      else begin
        (* Mixed outcome: split.  Passing lanes accept and continue as
           the lead group; failing lanes sub-step to the rendezvous
           point t + h' and merge back.  The lead group's next step size
           depends only on the passing lanes' errors, so a stiff member
           never perturbs the others. *)
        let np = partition_passing e lo hi in
        e.splits <- e.splits + 1;
        let t1 = !t +. h' in
        let emax_pass = max_err lo (lo + np) in
        let emax_fail = max_err (lo + np) hi in
        for j = lo + np to hi - 1 do
          let m = e.perm.(j) in
          e.rejected.(m) <- e.rejected.(m) + 1
        done;
        accept lo (lo + np) t1;
        advance (lo + np) hi !t t1 (h' *. step_factor emax_fail) (depth + 1);
        e.merges <- e.merges + 1;
        t := t1;
        h := h' *. step_factor emax_pass
      end
    done
  in
  advance 0 e.width t0 tend h_init 0;
  report e ?trajectories:(if record then Some (trajectories_of e) else None)
