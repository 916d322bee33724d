(* Tests for the ODE stack: dense linear algebra, explicit and implicit
   solvers, convergence orders, Jacobians and the LSODA-style driver. *)

module L = Om_ode.Linalg
module Odesys = Om_ode.Odesys
module Rk = Om_ode.Rk
module Bdf = Om_ode.Bdf
module Lsoda = Om_ode.Lsoda
module Jacobian = Om_ode.Jacobian
module E = Om_expr.Expr

let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ---------- linalg ---------- *)

let test_lu_solve_known () =
  let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = L.lu_solve (L.lu_factor a) [| 5.; 10. |] in
  checkf "x0" 1. x.(0);
  checkf "x1" 3. x.(1);
  (* A zero leading pivot: partial pivoting must swap the rows. *)
  let b = [| [| 0.; 3. |]; [| 2.; 0. |] |] in
  let x = L.lu_solve (L.lu_factor b) [| 6.; 4. |] in
  checkf "swapped x0" 2. x.(0);
  checkf "swapped x1" 2. x.(1)

let test_singular () =
  let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" (L.Singular 1) (fun () ->
      ignore (L.lu_factor a))

let random_system_gen =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* entries = array_size (return (n * n)) (float_range (-5.) 5.) in
    let* b = array_size (return n) (float_range (-5.) 5.) in
    return (n, entries, b))

let arbitrary_system =
  QCheck.make
    ~print:(fun (n, _, _) -> Printf.sprintf "n=%d" n)
    random_system_gen

let prop_lu_solve_residual =
  QCheck.Test.make ~name:"LU solve has small residual" ~count:200
    arbitrary_system (fun (n, entries, b) ->
      let a = Array.init n (fun i -> Array.init n (fun j -> entries.((i * n) + j))) in
      (* Diagonal dominance guarantees nonsingularity and conditioning. *)
      for i = 0 to n - 1 do
        a.(i).(i) <- a.(i).(i) +. 20.
      done;
      let x = L.lu_solve (L.lu_factor a) b in
      let err = ref 0. in
      for i = 0 to n - 1 do
        let r = ref 0. in
        Array.iteri (fun j v -> r := !r +. (v *. x.(j))) a.(i);
        err := Float.max !err (Float.abs (!r -. b.(i)))
      done;
      !err < 1e-8)

let test_norms () =
  checkf "two" 5. (L.norm2 [| 3.; 4. |]);
  checkf "wrms" 1. (L.wrms_norm [| 2.; 2. |] [| 2.; 2. |])

(* ---------- fixtures ---------- *)

(* y' = -y, y(0)=1: y(t) = exp(-t). *)
let decay () = Odesys.of_equations [ ("y", E.neg (E.var "y")) ]

(* Circle: x' = y, y' = -x. *)
let circle () =
  Odesys.of_equations [ ("x", E.var "y"); ("y", E.neg (E.var "x")) ]

(* Stiff linear problem: y' = -1000 (y - cos t) - sin t. *)
let stiff_linear () =
  Odesys.of_equations
    [
      ( "y",
        E.(
          sub
            (mul [ const (-1000.); sub (var "y") (cos (var "t")) ])
            (sin (var "t"))) );
    ]

let final solver = Odesys.final_state solver

(* ---------- explicit solvers ---------- *)

let test_rk4_circle () =
  let sys = circle () in
  let tr =
    Rk.integrate_fixed Rk.rk4 sys ~t0:0. ~y0:[| 1.; 0. |]
      ~tend:(2. *. Float.pi) ~h:1e-2
  in
  Alcotest.(check (float 1e-6)) "x back to 1" 1. (final tr).(0);
  Alcotest.(check (float 1e-6)) "y back to 0" 0. (final tr).(1)

(* Convergence order: halving h divides the error by ~2^order. *)
let order_of stepper h =
  let err h =
    let sys = decay () in
    let tr = Rk.integrate_fixed stepper sys ~t0:0. ~y0:[| 1. |] ~tend:1. ~h in
    Float.abs ((final tr).(0) -. Float.exp (-1.))
  in
  Float.log (err h /. err (h /. 2.)) /. Float.log 2.

let test_orders () =
  let o4 = order_of Rk.rk4 1e-1 in
  Alcotest.(check bool) "rk4 ~4" true (o4 > 3.5 && o4 < 4.5)

let test_rkf45_tolerance () =
  let sys = circle () in
  let tr =
    Rk.rkf45 ~atol:1e-10 ~rtol:1e-10 sys ~t0:0. ~y0:[| 1.; 0. |]
      ~tend:(2. *. Float.pi)
  in
  Alcotest.(check (float 1e-6)) "tight tolerance" 1. (final tr).(0);
  let sys2 = circle () in
  let _tr2 =
    Rk.rkf45 ~atol:1e-4 ~rtol:1e-4 sys2 ~t0:0. ~y0:[| 1.; 0. |]
      ~tend:(2. *. Float.pi)
  in
  Alcotest.(check bool) "loose tolerance uses fewer steps" true
    (sys2.counters.steps < sys.counters.steps)

let test_rkf45_rejections_counted () =
  let sys = stiff_linear () in
  let _ = Rk.rkf45 sys ~t0:0. ~y0:[| 0. |] ~tend:0.1 in
  Alcotest.(check bool) "some rejections on stiff problem" true
    (sys.counters.rejected >= 0)

(* ---------- bdf ---------- *)

let test_bdf_decay () =
  List.iter
    (fun order ->
      let sys = decay () in
      let tr = Bdf.integrate ~order sys ~t0:0. ~y0:[| 1. |] ~tend:1. ~h:1e-3 in
      Alcotest.(check (float 1e-3))
        (Printf.sprintf "bdf%d" order)
        (Float.exp (-1.))
        (final tr).(0))
    [ 1; 2; 3 ]

let test_bdf_stiff_stable () =
  (* Implicit method must survive h far above the explicit stability
     limit (2/1000). *)
  let sys = stiff_linear () in
  let tr = Bdf.integrate ~order:2 sys ~t0:0. ~y0:[| 0. |] ~tend:1. ~h:0.01 in
  Alcotest.(check (float 0.05)) "tracks cos t" (Float.cos 1.) (final tr).(0);
  Alcotest.(check bool) "used the Jacobian" true (sys.counters.jac_calls > 0)

let test_bdf_uses_analytic_jacobian () =
  let sys = stiff_linear () in
  Alcotest.(check bool) "jac present" true (sys.jac <> None);
  let before = sys.counters.rhs_calls in
  let j = Jacobian.analytic sys 0. [| 0.5 |] in
  checkf "df/dy" (-1000.) j.(0).(0);
  Alcotest.(check int) "no RHS calls for analytic jac" before
    sys.counters.rhs_calls

let test_numeric_jacobian () =
  let sys = circle () in
  let j = Jacobian.numeric sys 0. [| 0.3; 0.7 |] in
  Alcotest.(check (float 1e-5)) "j01" 1. j.(0).(1);
  Alcotest.(check (float 1e-5)) "j10" (-1.) j.(1).(0);
  Alcotest.(check (float 1e-5)) "j00" 0. j.(0).(0)

(* ---------- lsoda ---------- *)

let test_lsoda_nonstiff_stays_adams () =
  let sys = circle () in
  let r = Lsoda.integrate sys ~t0:0. ~y0:[| 1.; 0. |] ~tend:(2. *. Float.pi) in
  Alcotest.(check bool) "no switch" true (r.switches = []);
  Alcotest.(check (float 1e-3)) "accuracy" 1.
    (Odesys.final_state r.trajectory).(0)

let test_lsoda_switches_on_stiff () =
  let sys = stiff_linear () in
  let r = Lsoda.integrate sys ~t0:0. ~y0:[| 0. |] ~tend:2. in
  Alcotest.(check bool) "switched to BDF" true
    (List.exists (fun (_, m) -> m = Lsoda.Bdf_mode) r.switches);
  Alcotest.(check (float 0.05)) "accuracy" (Float.cos 2.)
    (Odesys.final_state r.trajectory).(0)

let test_lsoda_trajectory_monotone_time () =
  let sys = circle () in
  let r = Lsoda.integrate sys ~t0:0. ~y0:[| 1.; 0. |] ~tend:1. in
  let ts = r.trajectory.ts in
  let ok = ref true in
  for i = 1 to Array.length ts - 1 do
    if ts.(i) <= ts.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "strictly increasing" true !ok;
  Alcotest.(check (float 1e-9)) "ends at tend" 1. ts.(Array.length ts - 1)

(* ---------- cross-solver consistency ---------- *)

(* Random stable 2x2 linear systems: all solvers must agree. *)
let stable_system_gen =
  QCheck.Gen.(
    let* a01 = float_range (-2.) 2. in
    let* a10 = float_range (-2.) 2. in
    let* d0 = float_range 0.5 4. in
    let* d1 = float_range 0.5 4. in
    let* x0 = float_range (-2.) 2. in
    let* y0 = float_range (-2.) 2. in
    return (a01, a10, d0, d1, x0, y0))

let arbitrary_stable =
  QCheck.make
    ~print:(fun (a, b, c, d, e, f) ->
      Printf.sprintf "a01=%g a10=%g d=(%g,%g) y0=(%g,%g)" a b c d e f)
    stable_system_gen

let linear_system (a01, a10, d0, d1) =
  (* Diagonally dominant negative diagonal: stable. *)
  let dom = 1. +. Float.max (Float.abs a01) (Float.abs a10) in
  Odesys.of_equations
    [
      ( "p",
        E.(add [ mul [ const (Float.neg (d0 +. dom)); var "p" ];
                 mul [ const a01; var "q" ] ]) );
      ( "q",
        E.(add [ mul [ const a10; var "p" ];
                 mul [ const (Float.neg (d1 +. dom)); var "q" ] ]) );
    ]

let prop_solvers_agree =
  QCheck.Test.make ~name:"rkf45 and lsoda agree" ~count:30
    arbitrary_stable (fun (a01, a10, d0, d1, x0, y0) ->
      let y0v = [| x0; y0 |] in
      let final run = run (linear_system (a01, a10, d0, d1)) in
      let r1 =
        final (fun sys ->
            Odesys.final_state
              (Rk.rkf45 ~atol:1e-10 ~rtol:1e-9 sys ~t0:0. ~y0:y0v ~tend:1.))
      in
      let r2 =
        final (fun sys ->
            Odesys.final_state
              (Lsoda.integrate ~atol:1e-10 ~rtol:1e-9 sys ~t0:0. ~y0:y0v
                 ~tend:1.)
                .trajectory)
      in
      let close a b = Float.abs (a -. b) < 1e-4 in
      close r1.(0) r2.(0) && close r1.(1) r2.(1))

(* ---------- of_equations ---------- *)

let test_of_equations_errors () =
  Alcotest.check_raises "free variable"
    (Invalid_argument "Odesys.of_equations: free variable q") (fun () ->
      ignore (Odesys.of_equations [ ("x", E.var "q") ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Odesys.of_equations: duplicate x") (fun () ->
      ignore (Odesys.of_equations [ ("x", E.var "x"); ("x", E.var "x") ]))

(* A compressed Jacobian writer has no value order without a pattern,
   so [make] refuses it instead of silently never calling it. *)
let test_make_sjac_needs_sparsity () =
  Alcotest.check_raises "sjac without sparsity"
    (Invalid_argument "Odesys.make: sjac without sparsity") (fun () ->
      ignore
        (Odesys.make ~sjac:(fun _ _ v -> v.(0) <- -1.) ~dim:1
           (fun _ y ydot -> ydot.(0) <- Float.neg y.(0))))

(* The compiled RHS and the lazily compiled symbolic Jacobian of
   generated models, at seeded random states, against the tree walk:
   [f] against Eval.eval of each equation, [sjac] and [jac] against
   Eval.eval of Deriv.diff per structural entry (and [jac] zero off the
   pattern).  Compared under Float.equal, which identifies +0 and -0:
   the VM's documented contract. *)
let prop_of_equations_matches_eval =
  QCheck.Test.make ~name:"of_equations f, jac and sjac agree with Eval"
    ~count:100
    QCheck.(make ~print:(Printf.sprintf "model seed %d") Gen.nat)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let fm = Om_lang.Flatten.flatten (Om_fuzz.Gen.model rng) in
      let eqs = Array.of_list fm.equations in
      let dim = Array.length eqs in
      let names = Array.map fst eqs in
      let sys = Odesys.of_equations fm.equations in
      let pat = Option.get sys.sparsity in
      let ydot = Array.make dim 0. in
      let v = Array.make (Om_ode.Sparse.nnz pat) 0. in
      let m = L.make dim dim nan in
      List.for_all
        (fun _ ->
          let y0 = Om_lang.Flat_model.initial_values fm in
          let y =
            Array.map (fun v -> v +. Random.State.float rng 2. -. 1.) y0
          in
          let t = Random.State.float rng 1. in
          let env =
            Om_expr.Eval.env_of_list
              (("t", t)
              :: Array.to_list (Array.mapi (fun i n -> (n, y.(i))) names))
          in
          let eval e = Om_expr.Eval.eval env e in
          sys.f t y ydot;
          Option.get sys.sjac t y v;
          Option.get sys.jac t y m;
          let rhs_ok =
            Array.for_all2 (fun (_, e) d -> Float.equal d (eval e)) eqs ydot
          in
          let jac_ok = ref true in
          for i = 0 to dim - 1 do
            for k = pat.row_ptr.(i) to pat.row_ptr.(i + 1) - 1 do
              let c = pat.col_ind.(k) in
              let want = eval (Om_expr.Deriv.diff names.(c) (snd eqs.(i))) in
              if not (Float.equal v.(k) want && Float.equal m.(i).(c) want)
              then jac_ok := false
            done;
            for c = 0 to dim - 1 do
              if (not (Om_ode.Sparse.mem pat i c)) && m.(i).(c) <> 0. then
                jac_ok := false
            done
          done;
          rhs_ok && !jac_ok)
        [ 1; 2; 3 ])

let test_pp_counters () =
  let sys = decay () in
  ignore (Odesys.rhs sys 0. [| 1. |]);
  let text = Fmt.str "%a" Odesys.pp_counters sys.counters in
  Alcotest.(check string) "render"
    "steps=0 rhs=1 jac=0 rejected=0 newton=0 lu=0 retries=0" text

let test_counters_reset () =
  let sys = decay () in
  ignore (Odesys.rhs sys 0. [| 1. |]);
  Alcotest.(check int) "counted" 1 sys.counters.rhs_calls;
  Odesys.reset_counters sys;
  Alcotest.(check int) "reset" 0 sys.counters.rhs_calls

let test_sample_interpolation () =
  let tr =
    { Odesys.ts = [| 0.; 1.; 3. |];
      states = [| [| 0. |]; [| 10. |]; [| 30. |] |] }
  in
  let out = Odesys.sample tr ~times:[| -1.; 0.5; 2.; 5. |] in
  checkf "clamped left" 0. out.(0).(0);
  checkf "midpoint" 5. out.(1).(0);
  checkf "second segment" 20. out.(2).(0);
  checkf "clamped right" 30. out.(3).(0)

let test_sample_matches_solution () =
  let sys = decay () in
  let tr = Rk.rkf45 ~atol:1e-10 ~rtol:1e-10 sys ~t0:0. ~y0:[| 1. |] ~tend:2. in
  let times = Array.init 11 (fun i -> 0.2 *. float_of_int i) in
  let out = Odesys.sample tr ~times in
  (* Linear interpolation between accepted steps is only second order in
     the step size, so the tolerance is looser than the solver's. *)
  Array.iteri
    (fun i t ->
      Alcotest.(check (float 1e-3))
        (Printf.sprintf "t=%g" t)
        (Float.exp (Float.neg t))
        out.(i).(0))
    times

let test_column () =
  let sys = circle () in
  let tr = Rk.integrate_fixed Rk.rk4 sys ~t0:0. ~y0:[| 1.; 0. |] ~tend:0.1 ~h:0.05 in
  let xs = Odesys.column tr "x" sys in
  Alcotest.(check int) "column length" (Array.length tr.ts) (Array.length xs);
  checkf "starts at 1" 1. xs.(0)

(* ---------- corner cases ---------- *)

(* A zero-dimensional system is degenerate but legal: integrators must
   advance time and return empty state rows rather than crash. *)
let test_zero_dim () =
  let sys = Odesys.make ~names:[||] ~dim:0 (fun _ _ _ -> ()) in
  let tr = Rk.integrate_fixed Rk.rk4 sys ~t0:0. ~y0:[||] ~tend:0.1 ~h:0.025 in
  Alcotest.(check int) "rk4 steps" 5 (Array.length tr.ts);
  Array.iter
    (fun row -> Alcotest.(check int) "empty rows" 0 (Array.length row))
    tr.states;
  let res = Lsoda.integrate sys ~t0:0. ~y0:[||] ~tend:0.1 in
  Alcotest.(check bool) "lsoda reaches tend" true
    (Odesys.final_state res.trajectory |> Array.length = 0)

(* One equation, x' = -x: every solver must track exp(-t). *)
let test_single_equation_all_solvers () =
  let run name trajectory =
    let yf = (Odesys.final_state trajectory).(0) in
    Alcotest.(check (float 1e-4)) name (Float.exp (-1.)) yf
  in
  let fresh () = Odesys.of_equations [ ("x", E.(mul [ const (-1.); var "x" ])) ] in
  run "rk4"
    (Rk.integrate_fixed Rk.rk4 (fresh ()) ~t0:0. ~y0:[| 1. |] ~tend:1.
       ~h:0.01);
  run "rkf45" (Rk.rkf45 (fresh ()) ~t0:0. ~y0:[| 1. |] ~tend:1.);
  run "lsoda"
    (Lsoda.integrate (fresh ()) ~t0:0. ~y0:[| 1. |] ~tend:1.).trajectory

(* The fuzz generator's purpose-built stiff model must actually drive the
   LSODA heuristic into its BDF regime: after the fast transient decays,
   the accuracy-chosen Adams step keeps bumping into the stability bound
   h·L ≈ 1 with L ≈ rate. *)
let test_lsoda_stiff_generated_model () =
  let f = Om_lang.Flatten.flatten (Om_fuzz.Gen.stiff_model ~rate:2000. ()) in
  let sys = Odesys.of_equations f.equations in
  let res =
    Lsoda.integrate sys ~t0:0. ~y0:(Om_lang.Flat_model.initial_values f)
      ~tend:2.
  in
  Alcotest.(check bool) "switched at least once" true
    (List.length res.switches >= 1);
  Alcotest.(check bool) "entered BDF mode" true
    (List.exists (fun (_, m) -> m = Lsoda.Bdf_mode) res.switches);
  (* The trajectory itself must stay sane: x relaxes onto cos t. *)
  let xs = Odesys.column res.trajectory "s.x" sys in
  let last = xs.(Array.length xs - 1) in
  let t_last = res.trajectory.ts.(Array.length res.trajectory.ts - 1) in
  Alcotest.(check (float 5e-2)) "x tracks cos t" (Float.cos t_last) last

(* ---------- typed-fault backoff ---------- *)

module Ge = Om_guard.Om_error

(* x' = -x whose output is poisoned with NaN for the RHS-call numbers
   selected by [poison]; a finite guard turns the poison into the typed
   error the solvers' retry ladders catch.  Poisoning by call number
   keeps the fault transient and deterministic: after the solver
   re-evaluates, the step sees only clean outputs. *)
let faulty_decay ~poison =
  let calls = ref 0 in
  let g = Om_guard.Finite_guard.create ~names:[| "x" |] ~dim:1 in
  let rhs t y ydot =
    incr calls;
    ydot.(0) <- (if poison !calls then Float.nan else Float.neg y.(0));
    Om_guard.Finite_guard.check g ~time:t ydot
  in
  Odesys.make ~names:[| "x" |] ~dim:1 rhs

let clean_decay () =
  Odesys.make ~names:[| "x" |] ~dim:1 (fun _ y ydot ->
      ydot.(0) <- Float.neg y.(0))

let test_rk4_transient_retry () =
  (* One poisoned (t, step): the fixed-step ladder retries at the SAME
     step size, so the recovered trajectory is bitwise identical. *)
  let reference =
    Rk.integrate_fixed Rk.rk4 (clean_decay ()) ~t0:0. ~y0:[| 1. |] ~tend:1.
      ~h:0.1
  in
  let sys = faulty_decay ~poison:(fun n -> n = 7) in
  let tr = Rk.integrate_fixed Rk.rk4 sys ~t0:0. ~y0:[| 1. |] ~tend:1. ~h:0.1 in
  Alcotest.(check int) "one retry counted" 1 sys.counters.retries;
  Alcotest.(check bool) "times identical" true (tr.ts = reference.ts);
  Alcotest.(check bool) "states identical" true (tr.states = reference.states)

let test_rk4_budget_exhausted () =
  (* A permanent fault exhausts the budget and fails typed, naming the
     offending equation in the reason chain. *)
  let sys = faulty_decay ~poison:(fun n -> n >= 7) in
  match
    Rk.integrate_fixed Rk.rk4 sys ~t0:0. ~y0:[| 1. |] ~tend:1. ~h:0.1
  with
  | _ -> Alcotest.fail "permanent fault not detected"
  | exception Ge.Error (Ge.Step_failure { solver; retries; reason; _ }) ->
      Alcotest.(check string) "solver named" "rk-fixed" solver;
      Alcotest.(check int) "budget spent" 8 retries;
      Alcotest.(check bool) "equation attributed" true
        (let n = String.length reason and m = String.length "der(x)" in
         let rec go i =
           i + m <= n && (String.sub reason i m = "der(x)" || go (i + 1))
         in
         go 0);
      Alcotest.(check bool) "every attempt counted" true
        (sys.counters.retries > retries)

let test_rkf45_transient_retry () =
  let reference =
    Rk.rkf45 (clean_decay ()) ~t0:0. ~y0:[| 1. |] ~tend:1.
  in
  let sys = faulty_decay ~poison:(fun n -> n = 10) in
  let tr = Rk.rkf45 sys ~t0:0. ~y0:[| 1. |] ~tend:1. in
  Alcotest.(check int) "one retry counted" 1 sys.counters.retries;
  Alcotest.(check bool) "times identical" true (tr.ts = reference.ts);
  Alcotest.(check bool) "states identical" true (tr.states = reference.states)

let test_rkf45_budget_exhausted () =
  let sys = faulty_decay ~poison:(fun n -> n >= 10) in
  match Rk.rkf45 sys ~t0:0. ~y0:[| 1. |] ~tend:1. with
  | _ -> Alcotest.fail "permanent fault not detected"
  | exception Ge.Error (Ge.Step_failure { solver; retries; _ }) ->
      Alcotest.(check string) "solver named" "rkf45" solver;
      Alcotest.(check int) "budget spent" 8 retries

let test_lsoda_transient_retry () =
  let reference =
    (Lsoda.integrate (clean_decay ()) ~t0:0. ~y0:[| 1. |] ~tend:1.).trajectory
  in
  let sys = faulty_decay ~poison:(fun n -> n = 10) in
  let res = Lsoda.integrate sys ~t0:0. ~y0:[| 1. |] ~tend:1. in
  Alcotest.(check int) "one retry counted" 1 sys.counters.retries;
  Alcotest.(check bool) "times identical" true
    (res.trajectory.ts = reference.ts);
  Alcotest.(check bool) "states identical" true
    (res.trajectory.states = reference.states)

let test_lsoda_budget_exhausted () =
  let sys = faulty_decay ~poison:(fun n -> n >= 10) in
  match Lsoda.integrate sys ~t0:0. ~y0:[| 1. |] ~tend:1. with
  | _ -> Alcotest.fail "permanent fault not detected"
  | exception Ge.Error (Ge.Step_failure { solver; retries; _ }) ->
      Alcotest.(check string) "solver named" "lsoda" solver;
      Alcotest.(check int) "budget spent" 8 retries

(* ---------- sparse stiff regression ---------- *)

(* A method-of-lines heat equation: 32 states, tridiagonal Jacobian,
   stiff enough (lambda_max ~ 4/dx^2) to drive LSODA into BDF.  The
   dense and sparse Newton paths must produce Int64-bitwise identical
   trajectories — the whole design contract of [Om_ode.Sparse]. *)
let heat_system ~with_symbolic_jacobian () =
  let f = Om_pde.Discretize.heat_1d ~n:34 () in
  ( Odesys.of_equations ~with_symbolic_jacobian f.Om_lang.Flat_model.equations,
    Om_lang.Flat_model.initial_values f )

let check_bitwise_traj name (a : Odesys.trajectory) (b : Odesys.trajectory) =
  let beq x y = Int64.bits_of_float x = Int64.bits_of_float y in
  Alcotest.(check bool) (name ^ ": same times") true
    (Array.for_all2 beq a.ts b.ts);
  Alcotest.(check bool) (name ^ ": states bitwise") true
    (Array.for_all2 (fun ra rb -> Array.for_all2 beq ra rb) a.states b.states)

let test_bdf_sparse_matches_dense_bitwise () =
  List.iter
    (fun symbolic ->
      let name = if symbolic then "symbolic" else "fd" in
      let run jac_mode =
        let sys, y0 = heat_system ~with_symbolic_jacobian:symbolic () in
        Bdf.integrate ~jac_mode sys ~t0:0. ~y0 ~tend:0.05 ~h:1e-3
      in
      check_bitwise_traj ("bdf " ^ name) (run Odesys.Dense) (run Odesys.Sparse))
    [ true; false ]

let test_lsoda_sparse_matches_dense_bitwise () =
  List.iter
    (fun symbolic ->
      let name = if symbolic then "symbolic" else "fd" in
      let run jac_mode =
        let sys, y0 = heat_system ~with_symbolic_jacobian:symbolic () in
        let res = Lsoda.integrate ~jac_mode sys ~t0:0. ~y0 ~tend:0.2 in
        (* The sparse path only matters if the driver actually entered
           its BDF regime. *)
        Alcotest.(check bool) (name ^ ": entered BDF") true
          (List.exists (fun (_, m) -> m = Lsoda.Bdf_mode) res.switches);
        res.trajectory
      in
      check_bitwise_traj ("lsoda " ^ name) (run Odesys.Dense)
        (run Odesys.Sparse))
    [ true; false ]

(* Auto resolves to the sparse path on this system (32 states,
   tridiagonal) and must still be bitwise the explicit modes. *)
let test_auto_resolves_sparse_and_matches () =
  let sys, _ = heat_system ~with_symbolic_jacobian:true () in
  (match Jacobian.mode_stats sys, sys.sparsity with
  | ("sparse", Some nnz), Some p ->
      Alcotest.(check int) "tridiagonal nnz" 94 nnz;
      Alcotest.(check int) "tridiagonal colors" 3
        (Om_ode.Sparse.color_columns p).ncolors
  | (mode, _), _ -> Alcotest.failf "Auto resolved to %s" mode);
  let run jac_mode =
    let sys, y0 = heat_system ~with_symbolic_jacobian:true () in
    Bdf.integrate ~jac_mode sys ~t0:0. ~y0 ~tend:0.05 ~h:1e-3
  in
  check_bitwise_traj "auto" (run Odesys.Auto) (run Odesys.Sparse)

(* Singular iteration matrices surface as the same typed Newton_failure
   in every jac mode (the solver's step-shrinking taxonomy, not an
   untyped linear-algebra exception). *)
let test_sparse_singular_newton_failure () =
  List.iter
    (fun jac_mode ->
      let pat = Om_ode.Sparse.pattern_of_entries ~rows:2 ~cols:2
          [ (0, 0); (1, 1) ]
      in
      let sys =
        Odesys.make ~sparsity:pat
          ~jac:(fun _ _ m ->
            m.(0).(0) <- 1.;
            m.(0).(1) <- 0.;
            m.(1).(0) <- 0.;
            m.(1).(1) <- 1.)
          ~sjac:(fun _ _ v ->
            v.(0) <- 1.;
            v.(1) <- 1.)
          ~dim:2
          (fun _ y ydot ->
            ydot.(0) <- y.(0);
            ydot.(1) <- y.(1))
      in
      (* alpha0 = beta_h and J = I make M = alpha0*I - beta_h*J = 0. *)
      Alcotest.check_raises "singular Newton matrix is typed"
        (Ge.Error (Ge.Newton_failure { time = 0.; iterations = 0 }))
        (fun () ->
          ignore
            (Bdf.solve_implicit_stage (Jacobian.plan ~jac_mode sys) sys
               ~tol:1e-10 ~max_iter:4 ~t_next:0. ~beta_h:1.
               ~rhs_const:[| 0.; 0. |] ~alpha0:1. ~y_guess:[| 1.; 1. |])))
    [ Odesys.Dense; Odesys.Sparse ]

(* Every numeric-Jacobian entry point bumps jac_calls exactly once and
   costs dim + 1 RHS evaluations. *)
let test_numeric_jacobian_counts_once () =
  let sys = clean_decay () in
  let m = Array.make_matrix 1 1 0. in
  Jacobian.numeric_into sys 0. [| 1. |] m;
  Alcotest.(check int) "jac_calls after numeric_into" 1
    sys.Odesys.counters.Odesys.jac_calls;
  Alcotest.(check int) "rhs calls = dim + 1" 2
    sys.Odesys.counters.Odesys.rhs_calls;
  ignore (Jacobian.numeric sys 0. [| 1. |]);
  Alcotest.(check int) "jac_calls after numeric" 2
    sys.Odesys.counters.Odesys.jac_calls

let () =
  let q = Qcheck_seed.to_alcotest in
  Alcotest.run "om_ode"
    [
      ( "linalg",
        [
          Alcotest.test_case "solve known" `Quick test_lu_solve_known;
          Alcotest.test_case "singular" `Quick test_singular;
          Alcotest.test_case "norms" `Quick test_norms;
          q prop_lu_solve_residual;
        ] );
      ( "explicit",
        [
          Alcotest.test_case "rk4 circle" `Quick test_rk4_circle;
          Alcotest.test_case "convergence orders" `Quick test_orders;
          Alcotest.test_case "rkf45 tolerances" `Quick test_rkf45_tolerance;
          Alcotest.test_case "rkf45 rejections" `Quick
            test_rkf45_rejections_counted;
        ] );
      ( "bdf",
        [
          Alcotest.test_case "decay" `Quick test_bdf_decay;
          Alcotest.test_case "stiff stability" `Quick test_bdf_stiff_stable;
          Alcotest.test_case "analytic jacobian" `Quick
            test_bdf_uses_analytic_jacobian;
          Alcotest.test_case "numeric jacobian" `Quick test_numeric_jacobian;
        ] );
      ( "corner",
        [
          Alcotest.test_case "zero dimension" `Quick test_zero_dim;
          Alcotest.test_case "single equation, all solvers" `Quick
            test_single_equation_all_solvers;
          Alcotest.test_case "generated stiff model switches" `Quick
            test_lsoda_stiff_generated_model;
        ] );
      ( "lsoda",
        [
          Alcotest.test_case "nonstiff stays adams" `Quick
            test_lsoda_nonstiff_stays_adams;
          Alcotest.test_case "switches on stiff" `Quick
            test_lsoda_switches_on_stiff;
          Alcotest.test_case "monotone trajectory" `Quick
            test_lsoda_trajectory_monotone_time;
        ] );
      ( "consistency", [ q prop_solvers_agree ] );
      ( "sparse regression",
        [
          Alcotest.test_case "bdf dense = sparse bitwise" `Quick
            test_bdf_sparse_matches_dense_bitwise;
          Alcotest.test_case "lsoda dense = sparse bitwise" `Quick
            test_lsoda_sparse_matches_dense_bitwise;
          Alcotest.test_case "auto resolves sparse" `Quick
            test_auto_resolves_sparse_and_matches;
          Alcotest.test_case "singular Newton matrix typed" `Quick
            test_sparse_singular_newton_failure;
          Alcotest.test_case "numeric jac_calls counted once" `Quick
            test_numeric_jacobian_counts_once;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "rk4 transient retry" `Quick
            test_rk4_transient_retry;
          Alcotest.test_case "rk4 budget exhausted" `Quick
            test_rk4_budget_exhausted;
          Alcotest.test_case "rkf45 transient retry" `Quick
            test_rkf45_transient_retry;
          Alcotest.test_case "rkf45 budget exhausted" `Quick
            test_rkf45_budget_exhausted;
          Alcotest.test_case "lsoda transient retry" `Quick
            test_lsoda_transient_retry;
          Alcotest.test_case "lsoda budget exhausted" `Quick
            test_lsoda_budget_exhausted;
        ] );
      ( "odesys",
        [
          Alcotest.test_case "elaboration errors" `Quick
            test_of_equations_errors;
          Alcotest.test_case "sjac needs sparsity" `Quick
            test_make_sjac_needs_sparsity;
          Alcotest.test_case "counters" `Quick test_counters_reset;
          q prop_of_equations_matches_eval;
          Alcotest.test_case "counters printing" `Quick test_pp_counters;
          Alcotest.test_case "column" `Quick test_column;
          Alcotest.test_case "sample interpolation" `Quick
            test_sample_interpolation;
          Alcotest.test_case "sample matches solution" `Quick
            test_sample_matches_solution;
        ] );
    ]
