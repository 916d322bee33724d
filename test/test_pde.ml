(* Tests for the PDE extension: grids, method-of-lines discretisation,
   analytic decay rates, conservation, and integration with the code
   generation pipeline. *)

module G = Om_pde.Grid
module Dz = Om_pde.Discretize
module Fm = Om_lang.Flat_model
module E = Om_expr.Expr

(* ---------- grid ---------- *)

let test_grid_1d () =
  let g = G.make_1d ~n:11 ~length:2. in
  Alcotest.(check (float 1e-12)) "spacing" 0.2 g.h;
  Alcotest.(check (float 1e-12)) "x of 5" 1. (G.x_of g 5);
  Alcotest.(check string) "node name" "u[3]" (G.node_1d "u" 3);
  Alcotest.(check int) "interior count" 9 (List.length (G.interior_1d g))

let test_grid_1d_invalid () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Grid.make_1d: need at least 3 nodes") (fun () ->
      ignore (G.make_1d ~n:2 ~length:1.))

let test_grid_2d () =
  let g = G.make_2d ~nx:5 ~ny:9 ~lx:1. ~ly:2. in
  Alcotest.(check (float 1e-12)) "hx" 0.25 g.hx;
  Alcotest.(check (float 1e-12)) "hy" 0.25 g.hy;
  Alcotest.(check string) "node name" "u[2,5]" (G.node_2d "u" 2 5);
  Alcotest.(check int) "interior" (3 * 7) (List.length (G.interior_2d g))

(* ---------- discretisation structure ---------- *)

let test_heat_structure () =
  let m = Dz.heat_1d ~n:11 () in
  (* Dirichlet ends: 9 interior states. *)
  Alcotest.(check int) "9 states" 9 (Fm.dim m);
  Om_lang.Typecheck.check m;
  (* Tridiagonal coupling: each interior equation references at most 3
     states. *)
  List.iter
    (fun (_, rhs) ->
      Alcotest.(check bool) "banded" true (List.length (E.vars rhs) <= 3))
    m.equations

let test_neumann_keeps_boundary_state () =
  let spec =
    {
      Dz.name = "neumann";
      field = "u";
      grid = G.make_1d ~n:5 ~length:1.;
      initial = (fun _ -> 1.);
      rhs = (fun ~u:_ ~ux:_ ~uxx ~x:_ -> uxx);
      left = Dz.Neumann 0.;
      right = Dz.Dirichlet 0.;
    }
  in
  let m = Dz.discretize_1d spec in
  (* Nodes 0..3 are states (4); node 4 is Dirichlet. *)
  Alcotest.(check int) "4 states" 4 (Fm.dim m);
  Alcotest.(check bool) "u[0] is a state" true
    (List.mem_assoc "u[0]" m.states)

let test_heat_2d_structure () =
  let m = Dz.heat_2d ~nx:7 ~ny:7 () in
  Alcotest.(check int) "interior grid" 25 (Fm.dim m);
  Om_lang.Typecheck.check m;
  (* 5-point stencil. *)
  List.iter
    (fun (_, rhs) ->
      Alcotest.(check bool) "5-point" true (List.length (E.vars rhs) <= 5))
    m.equations

(* ---------- analytic validation ---------- *)

(* Heat equation fundamental mode decays as exp(-alpha (pi/L)^2 t). *)
let test_heat_decay_rate () =
  let alpha = 0.1 and length = 1. in
  let m = Dz.heat_1d ~n:41 ~length ~alpha () in
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations in
  let y0 = Fm.initial_values m in
  let tend = 0.5 in
  let tr = Om_ode.Rk.rkf45 ~atol:1e-9 ~rtol:1e-9 sys ~t0:0. ~y0 ~tend in
  let yf = Om_ode.Odesys.final_state tr in
  let mid = Fm.dim m / 2 in
  let expected =
    y0.(mid) *. Float.exp (Float.neg alpha *. (Float.pi /. length) ** 2. *. tend)
  in
  Alcotest.(check (float 1e-3)) "fundamental mode decay" expected yf.(mid)

let test_heat_maximum_principle () =
  (* Solution must stay within the initial bounds (no over/undershoot). *)
  let m = Dz.heat_1d ~n:21 () in
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations in
  let y0 = Fm.initial_values m in
  let tr = Om_ode.Rk.rkf45 sys ~t0:0. ~y0 ~tend:1. in
  Array.iter
    (fun y ->
      Array.iter
        (fun v ->
          Alcotest.(check bool) "bounded" true (v >= -1e-9 && v <= 1. +. 1e-9))
        y)
    tr.states

let test_advection_moves_pulse () =
  let m = Dz.advection_diffusion_1d ~n:81 ~speed:1. ~alpha:0.002 () in
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations in
  let y0 = Fm.initial_values m in
  let tr = Om_ode.Rk.rkf45 sys ~t0:0. ~y0 ~tend:0.25 in
  let yf = Om_ode.Odesys.final_state tr in
  let peak a =
    let best = ref 0 in
    Array.iteri (fun i v -> if v > a.(!best) then best := i) a;
    !best
  in
  (* The pulse starts at x = 0.25 and travels at unit speed for 0.25:
     peak should move from node ~20 to node ~40 of 79. *)
  let p0 = peak y0 and p1 = peak yf in
  Alcotest.(check bool) "moved right" true (p1 > p0 + 10);
  Alcotest.(check bool) "roughly half way" true (abs (p1 - 40) <= 4)

let test_burgers_steepens_and_dissipates () =
  let m = Dz.burgers_1d ~n:81 ~nu:0.02 () in
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations in
  let y0 = Fm.initial_values m in
  let r = Om_ode.Lsoda.integrate sys ~t0:0. ~y0 ~tend:0.5 in
  let yf = Om_ode.Odesys.final_state r.trajectory in
  Alcotest.(check bool) "finite" true (Array.for_all Float.is_finite yf);
  let energy a = Array.fold_left (fun acc v -> acc +. (v *. v)) 0. a in
  Alcotest.(check bool) "viscosity dissipates energy" true
    (energy yf < energy y0)

let test_heat_2d_decay () =
  let alpha = 0.1 in
  let m = Dz.heat_2d ~nx:13 ~ny:13 ~alpha () in
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations in
  let y0 = Fm.initial_values m in
  let tend = 0.2 in
  let tr = Om_ode.Rk.rkf45 ~atol:1e-9 ~rtol:1e-9 sys ~t0:0. ~y0 ~tend in
  let yf = Om_ode.Odesys.final_state tr in
  (* Fundamental 2D mode decays at rate alpha * 2 pi^2. *)
  let mid =
    match Array.find_index (fun n -> n = "u[6,6]") sys.names with
    | Some i -> i
    | None -> Alcotest.fail "missing centre node"
  in
  let expected =
    y0.(mid) *. Float.exp (Float.neg alpha *. 2. *. (Float.pi ** 2.) *. tend)
  in
  Alcotest.(check (float 5e-3)) "2D mode decay" expected yf.(mid)

(* ---------- pipeline integration ---------- *)

let test_pde_through_codegen () =
  let m = Dz.heat_1d ~n:21 () in
  let r = Om_codegen.Pipeline.compile m in
  (* The generated code must agree with direct evaluation. *)
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations in
  let y0 = Fm.initial_values m in
  let d1 = Om_ode.Odesys.rhs sys 0. y0 in
  let d2 = Array.make (Fm.dim m) 0. in
  Om_codegen.Pipeline.rhs_fn r 0. y0 d2;
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-12)) (string_of_int i) v d2.(i))
    d1

let test_pde_scc_structure () =
  (* Diffusion couples every interior node: one big SCC. *)
  let m = Dz.heat_1d ~n:21 () in
  let a = Om_codegen.Pipeline.analyse m in
  Alcotest.(check int) "single SCC" 1 a.comps.count

let test_pde_jacobian_banded () =
  let m = Dz.heat_1d ~n:41 () in
  let jg = Om_codegen.Jacobian_gen.generate m in
  (* Tridiagonal: about 3 nonzeros per row. *)
  let dim = Fm.dim m in
  Alcotest.(check int) "tridiagonal count" ((3 * dim) - 2)
    (Om_codegen.Jacobian_gen.nonzero_count jg)

let test_pde_parallelises () =
  (* A 200-node PDE system has plenty of equation-level parallelism on
     the low-latency machine. *)
  let m = Dz.advection_diffusion_1d ~n:201 () in
  let r = Om_codegen.Pipeline.compile m in
  let sp =
    Objectmath.Runtime.speedup
      ~machine:(Om_machine.Machine.ideal 16) ~nworkers:8 r
  in
  Alcotest.(check bool) "near-linear on ideal machine" true (sp > 6.)

(* ---------- wave equation ---------- *)

let test_wave_structure () =
  let m = Dz.wave_1d ~n:11 () in
  (* 9 interior nodes x (displacement + velocity). *)
  Alcotest.(check int) "18 states" 18 (Fm.dim m);
  Om_lang.Typecheck.check m

let test_wave_standing_period () =
  (* A standing sine wave with c = 1 on length 1 has period 2: at t = 1
     the displacement is inverted, at t = 2 restored. *)
  let m = Dz.wave_1d ~n:41 ~speed:1. ~length:1. () in
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations in
  let y0 = Fm.initial_values m in
  let tr = Om_ode.Rk.rkf45 ~atol:1e-9 ~rtol:1e-9 sys ~t0:0. ~y0 ~tend:2. in
  let at_t t =
    (Om_ode.Odesys.sample tr ~times:[| t |]).(0)
  in
  let idx name =
    match Array.find_index (fun n -> n = name) sys.names with
    | Some i -> i
    | None -> Alcotest.fail ("missing " ^ name)
  in
  let mid = idx "u[20]" in
  let half = at_t 1. and full = at_t 2. in
  Alcotest.(check (float 2e-2)) "inverted at half period"
    (Float.neg y0.(mid)) half.(mid);
  Alcotest.(check (float 2e-2)) "restored at full period" y0.(mid)
    full.(mid)

let test_wave_energy_conserved () =
  (* Semi-discrete wave energy E = sum v^2/2 + c^2 (du/dx)^2/2 is
     conserved up to integration error. *)
  let m = Dz.wave_1d ~n:31 () in
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations in
  let y0 = Fm.initial_values m in
  let tr = Om_ode.Rk.rkf45 ~atol:1e-10 ~rtol:1e-10 sys ~t0:0. ~y0 ~tend:1.5 in
  let energy y =
    (* States interleave u[i], v[i] in grid order. *)
    let n2 = Array.length y / 2 in
    let u = Array.init n2 (fun k -> y.(2 * k)) in
    let v = Array.init n2 (fun k -> y.((2 * k) + 1)) in
    let h = 1. /. 30. in
    let e = ref 0. in
    Array.iter (fun vi -> e := !e +. (0.5 *. vi *. vi *. h)) v;
    (* Gradient terms, including the two boundary segments to the fixed
       (zero) ends — without them the discrete energy is not invariant. *)
    let du0 = u.(0) /. h and dun = Float.neg u.(n2 - 1) /. h in
    e := !e +. (0.5 *. du0 *. du0 *. h) +. (0.5 *. dun *. dun *. h);
    for k = 0 to n2 - 2 do
      let du = (u.(k + 1) -. u.(k)) /. h in
      e := !e +. (0.5 *. du *. du *. h)
    done;
    !e
  in
  let e0 = energy y0 and e1 = energy (Om_ode.Odesys.final_state tr) in
  Alcotest.(check bool) "energy drift below 1%" true
    (Float.abs (e1 -. e0) /. e0 < 0.01)

(* ---------- stiff PDE with sparse Newton ---------- *)

let test_bdf_sparse_heat_accuracy () =
  (* Stiff integration of the heat equation with the symbolic sparse
     Jacobian still matches the analytic mode decay. *)
  let alpha = 0.1 in
  let m = Dz.heat_1d ~n:31 ~alpha () in
  let sys = Om_ode.Odesys.of_equations m.equations in
  let y0 = Fm.initial_values m in
  let tend = 0.5 in
  let tr =
    Om_ode.Bdf.integrate ~order:2 ~jac_mode:Om_ode.Odesys.Sparse sys ~t0:0.
      ~y0 ~tend
      ~h:1e-3
  in
  let yf = Om_ode.Odesys.final_state tr in
  let mid = Fm.dim m / 2 in
  let expected =
    y0.(mid) *. Float.exp (Float.neg alpha *. (Float.pi ** 2.) *. tend)
  in
  Alcotest.(check (float 2e-3)) "decay with sparse Newton" expected yf.(mid)

let () =
  Alcotest.run "om_pde"
    [
      ( "grid",
        [
          Alcotest.test_case "1d" `Quick test_grid_1d;
          Alcotest.test_case "1d invalid" `Quick test_grid_1d_invalid;
          Alcotest.test_case "2d" `Quick test_grid_2d;
        ] );
      ( "structure",
        [
          Alcotest.test_case "heat tridiagonal" `Quick test_heat_structure;
          Alcotest.test_case "neumann boundary" `Quick
            test_neumann_keeps_boundary_state;
          Alcotest.test_case "2d five-point" `Quick test_heat_2d_structure;
        ] );
      ( "physics",
        [
          Alcotest.test_case "heat decay rate" `Quick test_heat_decay_rate;
          Alcotest.test_case "maximum principle" `Quick
            test_heat_maximum_principle;
          Alcotest.test_case "advection transport" `Quick
            test_advection_moves_pulse;
          Alcotest.test_case "burgers dissipation" `Slow
            test_burgers_steepens_and_dissipates;
          Alcotest.test_case "2d heat decay" `Slow test_heat_2d_decay;
        ] );
      ( "wave",
        [
          Alcotest.test_case "structure" `Quick test_wave_structure;
          Alcotest.test_case "standing-wave period" `Quick
            test_wave_standing_period;
          Alcotest.test_case "energy conservation" `Quick
            test_wave_energy_conserved;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "codegen equivalence" `Quick
            test_pde_through_codegen;
          Alcotest.test_case "SCC structure" `Quick test_pde_scc_structure;
          Alcotest.test_case "banded jacobian" `Quick test_pde_jacobian_banded;
          Alcotest.test_case "parallelises" `Quick test_pde_parallelises;
          Alcotest.test_case "sparse BDF accuracy" `Quick
            test_bdf_sparse_heat_accuracy;
        ] );
    ]
