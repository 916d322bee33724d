(* Batched ensemble engine: SoA batch VM, lockstep steppers, group
   split/merge, compile-once sweeps and Monte Carlo. *)

module E = Om_expr.Expr
module Vm = Om_expr.Vm
module Vb = Om_expr.Vm_batch
module Ens = Om_ode.Ensemble
module Bb = Om_codegen.Bytecode_backend
module Batch = Om_codegen.Batch_backend

let bits = Int64.bits_of_float

let check_bits what a b = Alcotest.(check int64) what (bits a) (bits b)

(* ---------- batched VM vs scalar VM ---------- *)

let names = [| "x"; "y"; "z" |]

let sample_exprs =
  [
    ( "poly",
      E.add
        [
          E.mul [ E.var "x"; E.var "x" ];
          E.mul [ E.const 3.; E.var "y" ];
          E.neg (E.var "z");
        ] );
    ("pow", E.pow (E.var "x") (E.var "y"));
    ( "calls",
      E.add
        [
          E.sin (E.var "x");
          E.call E.Atan2 [ E.var "y"; E.var "z" ];
          E.hypot (E.var "x") (E.var "z");
          E.call E.Min [ E.var "x"; E.var "y" ];
          E.sign (E.var "z");
        ] );
    ( "branch",
      E.if_
        (E.cond (E.var "x") E.Lt (E.var "y"))
        (E.exp (E.var "z"))
        (E.mul [ E.var "x"; E.var "y" ]) );
    ( "nested branch",
      E.if_
        (E.cond (E.var "x") E.Ge E.zero)
        (E.if_ (E.cond (E.var "y") E.Gt (E.var "z")) (E.var "y") (E.var "z"))
        (E.neg (E.var "x")) );
  ]

(* Deterministic lane environments crossing every branch. *)
let lane_envs =
  [|
    [| 0.3; 0.7; -1.2 |];
    [| 0.7; 0.3; 1.2 |];
    [| -0.5; 0.5; 0. |];
    [| 0.; 0.; -0. |];
    [| 2.5; -3.5; 0.25 |];
    [| -1.; -2.; 42. |];
    [| 1e-8; 1e8; -7.5 |];
  |]

let soa_env width =
  Array.init (Array.length names) (fun i ->
      Array.init width (fun j -> lane_envs.(j).(i)))

(* Lane environments that send neighbouring lanes down different arms:
   [branch] takes its arms by [j mod 2] and [nested branch] by
   [j mod 3], so the awake lanes of every innermost arm come in runs
   one lane long.  Scaling every value by a positive factor keeps each
   lane's arms. *)
let alternating_env label width =
  let lane j =
    let e = 1e-3 *. float_of_int j in
    match label with
    | "branch" ->
        if j mod 2 = 0 then [| 0.1 +. e; 0.9 +. e; -0.5 +. e |]
        else [| 0.9 +. e; 0.1 +. e; 0.3 |]
    | _ -> (
        match j mod 3 with
        | 0 -> [| -0.4 -. e; 0.2; 0.7 |]
        | 1 -> [| 0.2 +. e; 0.8 +. e; 0.1 |]
        | _ -> [| 0.2 +. e; 0.1; 0.8 +. e |])
  in
  let lanes = Array.init width lane in
  Array.init (Array.length names) (fun i ->
      Array.init width (fun j -> lanes.(j).(i)))

let scalar_lane env j = Array.map (fun col -> col.(j)) env

(* An expression as a program: one statement that stores its value to
   out slot 0. *)
let compile_expr e =
  Vm.compile_stmts ~out_size:1 (Om_expr.Layout.of_names names)
    [ (e, Vm.To_out 0) ]

let run_scalar p env =
  let out = [| 0. |] in
  Vm.exec p ~env ~out;
  out.(0)

let test_batch_matches_scalar () =
  let width = Array.length lane_envs in
  let env = soa_env width in
  List.iter
    (fun (label, e) ->
      let p = compile_expr e in
      let b = Vb.create p ~width in
      let row = Array.make width 0. in
      Vb.exec b ~env ~out:[| row |] ~lo:0 ~hi:width;
      Array.iteri
        (fun j scalar_env ->
          check_bits
            (Printf.sprintf "%s lane %d" label j)
            (run_scalar p scalar_env) row.(j))
        lane_envs)
    sample_exprs

let test_batch_width_one () =
  List.iter
    (fun (label, e) ->
      let p = compile_expr e in
      let b = Vb.create p ~width:1 in
      Array.iter
        (fun scalar_env ->
          let env =
            Array.init (Array.length names) (fun i -> [| scalar_env.(i) |])
          in
          let row = [| 0. |] in
          Vb.exec b ~env ~out:[| row |] ~lo:0 ~hi:1;
          check_bits
            (Printf.sprintf "%s width-1" label)
            (run_scalar p scalar_env) row.(0))
        lane_envs)
    sample_exprs

let test_batch_subrange () =
  (* Lanes outside [lo, hi) keep their previous results. *)
  let width = Array.length lane_envs in
  let env = soa_env width in
  let p = compile_expr (snd (List.nth sample_exprs 3)) in
  let b = Vb.create p ~width in
  let after = Array.make width 0. in
  Vb.exec b ~env ~out:[| after |] ~lo:0 ~hi:width;
  let before = Array.copy after in
  (* Perturb every env column, then re-run only lanes 2..4. *)
  Array.iter (fun col -> Array.iteri (fun j v -> col.(j) <- v +. 1.) col) env;
  Vb.exec b ~env ~out:[| after |] ~lo:2 ~hi:5;
  for j = 0 to width - 1 do
    if j < 2 || j >= 5 then
      check_bits (Printf.sprintf "lane %d untouched" j) before.(j) after.(j)
    else
      let scalar_env = Array.init 3 (fun i -> env.(i).(j)) in
      check_bits (Printf.sprintf "lane %d re-run" j) (run_scalar p scalar_env)
        after.(j)
  done

let test_batch_zero_alloc () =
  (* A jump-free program and a diverging nested branch at width 64, and
     the nested branch at width 512 with every awake run one lane long,
     so the awake-lane list is rebuilt for every segment. *)
  let cycled width =
    Array.init (Array.length names) (fun i ->
        Array.init width (fun j -> lane_envs.(j mod Array.length lane_envs).(i)))
  in
  List.iter
    (fun (label, width, env) ->
      let p = compile_expr (List.assoc label sample_exprs) in
      let b = Vb.create p ~width in
      let out = [| Array.make width 0. |] in
      let words n =
        Vb.exec b ~env ~out ~lo:0 ~hi:width;
        let before = Gc.minor_words () in
        for _ = 1 to n do
          Vb.exec b ~env ~out ~lo:0 ~hi:width
        done;
        Gc.minor_words () -. before
      in
      let d1 = words 500 in
      let d2 = words 5_500 in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s, width %d: zero words per exec" label width)
        0. (d2 -. d1))
    [
      ("poly", 64, cycled 64);
      ("nested branch", 64, cycled 64);
      ("nested branch", 512, alternating_env "nested branch" 512);
    ]

let test_batch_rejects_swapped_column () =
  (* Column lengths are checked on every call: a column swapped for a
     shorter one after a successful exec must be refused, not indexed
     past its end. *)
  let width = 4096 in
  let p = compile_expr (snd (List.nth sample_exprs 0)) in
  let b = Vb.create p ~width in
  let env = Array.init (Array.length names) (fun _ -> Array.make width 0.5) in
  let out = [| Array.make width 0. |] in
  Vb.exec b ~env ~out ~lo:0 ~hi:width;
  env.(0) <- [| 3.0 |];
  Alcotest.check_raises "short env column"
    (Invalid_argument "Vm_batch.exec: env column too short") (fun () ->
      Vb.exec b ~env ~out ~lo:0 ~hi:width);
  let p =
    Vm.compile_stmts ~out_size:2 (Om_expr.Layout.of_names names)
      [ (E.var names.(0), Vm.To_out 0) ]
  in
  let b = Vb.create p ~width in
  let env = Array.init (Array.length names) (fun _ -> Array.make width 0.5) in
  let out = Array.init 2 (fun _ -> Array.make width 1.) in
  Vb.exec b ~env ~out ~lo:0 ~hi:width;
  out.(0) <- [| 3.0 |];
  Alcotest.check_raises "short out column"
    (Invalid_argument "Vm_batch.exec: out column too short") (fun () ->
      Vb.exec b ~env ~out ~lo:0 ~hi:width)

let test_batch_one_lane_runs () =
  let width = 512 and lo = 37 and hi = 300 in
  List.iter
    (fun label ->
      let p = compile_expr (List.assoc label sample_exprs) in
      let b = Vb.create p ~width in
      let env = alternating_env label width in
      let after = Array.make width 0. in
      Vb.exec b ~env ~out:[| after |] ~lo:0 ~hi:width;
      let before = Array.copy after in
      for j = 0 to width - 1 do
        check_bits
          (Printf.sprintf "%s lane %d" label j)
          (run_scalar p (scalar_lane env j))
          before.(j)
      done;
      Array.iter
        (fun col -> Array.iteri (fun j v -> col.(j) <- 1.5 *. v) col)
        env;
      Vb.exec b ~env ~out:[| after |] ~lo ~hi;
      for j = 0 to width - 1 do
        if j < lo || j >= hi then
          check_bits
            (Printf.sprintf "%s lane %d untouched" label j)
            before.(j) after.(j)
        else
          check_bits
            (Printf.sprintf "%s lane %d in [%d, %d)" label j lo hi)
            (run_scalar p (scalar_lane env j))
            after.(j)
      done)
    [ "branch"; "nested branch" ]

let test_batch_domains_disjoint_halves () =
  (* Two domains run the two halves of one instance, each at its own
     pace, over diverging lanes; every round's results must be the bits
     of a sequential run. *)
  let width = 256 and rounds = 200 in
  let e =
    E.add
      [
        List.assoc "branch" sample_exprs;
        List.assoc "nested branch" sample_exprs;
      ]
  in
  let p = compile_expr e in
  let envs =
    Array.init rounds (fun r ->
        Array.init (Array.length names) (fun i ->
            Array.init width (fun j ->
                let k = (7 * j) + (13 * r) + (5 * i) in
                1.5 *. Float.sin (float_of_int k))))
  in
  let shared = Vb.create p ~width in
  let results = Array.init rounds (fun _ -> Array.make width 0.) in
  let half lo hi () =
    for r = 0 to rounds - 1 do
      Vb.exec shared ~env:envs.(r) ~out:[| results.(r) |] ~lo ~hi
    done
  in
  let other = Domain.spawn (half (width / 2) width) in
  half 0 (width / 2) ();
  Domain.join other;
  let seq = Vb.create p ~width in
  for r = 0 to rounds - 1 do
    let row = Array.make width 0. in
    Vb.exec seq ~env:envs.(r) ~out:[| row |] ~lo:0 ~hi:width;
    for j = 0 to width - 1 do
      if not (Int64.equal (bits row.(j)) (bits results.(r).(j))) then
        Alcotest.failf "round %d lane %d: %h sequential, %h on two domains" r j
          row.(j) results.(r).(j)
    done
  done

(* Random nested conditionals over lanes whose environments straddle
   the conditions, so awake lanes interleave in every pattern.  Each
   case runs the full width, then re-runs a random [lo, hi) over fresh
   environments on the same instance (inheriting the first run's sleep
   state): lanes inside must match the scalar VM bitwise, lanes outside
   must keep the first run's results. *)
let branch_expr_gen =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (3, map E.var (oneofa names));
        (1, map E.const (oneofl [ 0.; 0.5; -1.; 2. ]));
      ]
  in
  let rel = oneofl [ E.Lt; E.Le; E.Gt; E.Ge ] in
  sized_size (int_bound 10)
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (2, map2 (fun a b -> E.add [ a; b ]) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun a b -> E.mul [ a; b ]) (self (n / 2)) (self (n / 2)));
               (1, map E.sin (self (n - 1)));
               (1, map2 (fun a b -> E.call E.Min [ a; b ]) (self (n / 2)) (self (n / 2)));
               ( 4,
                 map3
                   (fun (a, r, b) t e -> E.if_ (E.cond a r b) t e)
                   (triple (self (n / 3)) rel (self (n / 3)))
                   (self (n / 3)) (self (n / 3)) );
             ])

let lane_envs_gen width =
  (* Runs of identical lanes interleaved with fresh draws near zero. *)
  let open QCheck.Gen in
  fun st ->
    let envs = Array.make width [||] in
    for j = 0 to width - 1 do
      envs.(j) <-
        (if j > 0 && bool st then envs.(j - 1)
         else
           Array.init (Array.length names) (fun _ ->
               float_range (-1.5) 1.5 st))
    done;
    envs

let arbitrary_divergence =
  let open QCheck.Gen in
  let gen =
    branch_expr_gen >>= fun e ->
    int_range 1 70 >>= fun width ->
    int_range 0 (width - 1) >>= fun lo ->
    int_range (lo + 1) width >>= fun hi ->
    pair (lane_envs_gen width) (lane_envs_gen width) >|= fun (first, second) ->
    (e, width, lo, hi, first, second)
  in
  QCheck.make
    ~print:(fun (e, width, lo, hi, _, _) ->
      Printf.sprintf "%s, width %d, lanes [%d, %d)" (Fmt.to_to_string E.pp e)
        width lo hi)
    gen

let prop_diverging_lanes_match_scalar =
  QCheck.Test.make ~name:"diverging lanes match the scalar VM bitwise"
    ~count:300 arbitrary_divergence (fun (e, width, lo, hi, first, second) ->
      let p = compile_expr e in
      let b = Vb.create p ~width in
      let soa envs =
        Array.init (Array.length names) (fun i ->
            Array.init width (fun j -> envs.(j).(i)))
      in
      let same x y = Int64.equal (bits x) (bits y) in
      let after = Array.make width 0. in
      Vb.exec b ~env:(soa first) ~out:[| after |] ~lo:0 ~hi:width;
      let before = Array.copy after in
      Vb.exec b ~env:(soa second) ~out:[| after |] ~lo ~hi;
      let ok = ref true in
      for j = 0 to width - 1 do
        let expected =
          if j >= lo && j < hi then run_scalar p second.(j) else before.(j)
        in
        if not (same expected after.(j)) then ok := false;
        if not (same (run_scalar p first.(j)) before.(j)) then ok := false
      done;
      !ok)

(* ---------- batch backend over a compiled model ---------- *)

let branchy_source =
  {|model M;
    class Osc
      parameter k = 1.5;
      variable x init 1.0;
      variable v init 0.5;
      equation der(x) = v;
      equation der(v) = if x > 0.0 then 0.0 - k * x else 0.0 - 2.0 * k * x;
    end;
    instance a of Osc;
    instance b of Osc;|}

let compile_model source =
  Om_codegen.Pipeline.compile (Om_lang.Flatten.flatten_string source)

let test_batch_backend_matches_rhs_fn () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let dim = c.Bb.dim in
  let width = 6 in
  let bb = Batch.create c ~width in
  let y =
    Array.init dim (fun i ->
        Array.init width (fun j ->
            (0.25 *. float_of_int (i + 1)) -. (0.35 *. float_of_int j)))
  in
  let times = Array.init width (fun j -> 0.125 *. float_of_int j) in
  let ydot = Array.init dim (fun _ -> Array.make width 0.) in
  Batch.brhs bb ~times ~y ~ydot ~lo:0 ~hi:width;
  let ys = Array.make dim 0. and yds = Array.make dim 0. in
  for j = 0 to width - 1 do
    for i = 0 to dim - 1 do
      ys.(i) <- y.(i).(j)
    done;
    Bb.rhs_fn c times.(j) ys yds;
    for i = 0 to dim - 1 do
      check_bits (Printf.sprintf "lane %d state %d" j i) yds.(i) ydot.(i).(j)
    done
  done

let test_batch_backend_zero_alloc () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let dim = c.Bb.dim in
  let width = 32 in
  let bb = Batch.create c ~width in
  let y = Array.init dim (fun i -> Array.make width (0.5 +. float_of_int i)) in
  let times = Array.make width 0. in
  let ydot = Array.init dim (fun _ -> Array.make width 0.) in
  let words n =
    Batch.brhs bb ~times ~y ~ydot ~lo:0 ~hi:width;
    let before = Gc.minor_words () in
    for _ = 1 to n do
      Batch.brhs bb ~times ~y ~ydot ~lo:0 ~hi:width
    done;
    Gc.minor_words () -. before
  in
  let d1 = words 200 in
  let d2 = words 2_200 in
  Alcotest.(check (float 0.)) "zero words per brhs" 0. (d2 -. d1)

(* ---------- lockstep RK4 vs scalar integration ---------- *)

let scalar_sys c =
  Om_ode.Odesys.make ~dim:c.Bb.dim (fun t y ydot -> Bb.rhs_fn c t y ydot)

let member_y0 c m =
  (* The compiled model's initial state, perturbed per member. *)
  Array.init c.Bb.dim (fun i ->
      (0.5 +. (0.25 *. float_of_int i)) +. (0.125 *. float_of_int m))

let check_traj what (a : Om_ode.Odesys.trajectory)
    (b : Om_ode.Odesys.trajectory) =
  Alcotest.(check int)
    (what ^ " length")
    (Array.length a.ts) (Array.length b.ts);
  Array.iteri
    (fun s ta -> check_bits (Printf.sprintf "%s t[%d]" what s) ta b.ts.(s))
    a.ts;
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun i v ->
          check_bits (Printf.sprintf "%s y[%d].(%d)" what s i) v
            b.states.(s).(i))
        row)
    a.states

let test_rk4_matches_scalar_runs () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let n = 5 in
  let y0s = Array.init n (member_y0 c) in
  let bb = Batch.create c ~width:n in
  let ens = Ens.create ~dim:c.Bb.dim ~f:(Batch.brhs bb) y0s in
  let rep = Ens.rk4 ~record:true ens ~t0:0. ~tend:0.4 ~h:0.025 in
  let trajs = Option.get rep.Ens.trajectories in
  for m = 0 to n - 1 do
    let tr =
      Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 (scalar_sys c) ~t0:0.
        ~y0:y0s.(m) ~tend:0.4 ~h:0.025
    in
    check_traj (Printf.sprintf "member %d" m) tr trajs.(m)
  done;
  Alcotest.(check int) "steps counted" 16 rep.Ens.steps.(0);
  Alcotest.(check int) "rhs evals" (16 * 4) rep.Ens.rhs_evals.(0)

let test_rkf45_batch_of_one_matches_scalar () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let y0 = member_y0 c 0 in
  let bb = Batch.create c ~width:1 in
  let ens = Ens.create ~dim:c.Bb.dim ~f:(Batch.brhs bb) [| y0 |] in
  let rep = Ens.rkf45 ~record:true ens ~t0:0. ~tend:2.5 in
  let trajs = Option.get rep.Ens.trajectories in
  let sys = scalar_sys c in
  let tr = Om_ode.Rk.rkf45 sys ~t0:0. ~y0 ~tend:2.5 in
  check_traj "batch of one" tr trajs.(0);
  Alcotest.(check int) "same accepted steps" sys.counters.steps
    rep.Ens.steps.(0);
  Alcotest.(check int) "same rejections" sys.counters.rejected
    rep.Ens.rejected.(0)

(* ---------- every member is its own scalar run ---------- *)

(* Decay with per-member rate carried in the state vector:
   k' = 0, x' = -k x.  A huge k makes one member stiff for RKF45. *)
let decay_source =
  {|model D;
    class C
      variable k init 1.0;
      variable x init 1.0;
      equation der(k) = 0.0;
      equation der(x) = 0.0 - k * x;
    end;
    instance c of C;|}

let decay_member c k =
  let y = Array.make c.Bb.dim 1. in
  let ki =
    match Array.to_list c.Bb.state_names with
    | names ->
        let rec find i = function
          | [] -> invalid_arg "no k state"
          | n :: tl -> if n = "c.k" then i else find (i + 1) tl
        in
        find 0 names
  in
  y.(ki) <- k;
  y

(* Each member of an [Ens.rkf45] batch over [y0s], at 1 and 3 domains,
   against a scalar [Rk.rkf45] run from its own start: trajectory,
   accepted steps, rejections and RHS calls.  Returns the scalar runs'
   (steps, rejections). *)
let check_members_are_scalar_runs c y0s ~tend =
  let n = Array.length y0s in
  let scalar =
    Array.map
      (fun y0 ->
        let sys = scalar_sys c in
        let tr = Om_ode.Rk.rkf45 sys ~t0:0. ~y0 ~tend in
        (tr, sys.counters))
      y0s
  in
  List.iter
    (fun domains ->
      let bb = Batch.create c ~width:n in
      let ex = Objectmath.Ensemble_exec.create ~domains bb in
      let rep =
        Fun.protect
          ~finally:(fun () -> Objectmath.Ensemble_exec.shutdown ex)
          (fun () ->
            let ens =
              Ens.create ~dim:c.Bb.dim ~f:(Objectmath.Ensemble_exec.brhs ex)
                y0s
            in
            Ens.rkf45 ~record:true ens ~t0:0. ~tend)
      in
      let trajs = Option.get rep.Ens.trajectories in
      Array.iteri
        (fun m (tr, (cs : Om_ode.Odesys.counters)) ->
          let what = Printf.sprintf "%d domains, member %d" domains m in
          check_traj what tr trajs.(m);
          Alcotest.(check int) (what ^ " steps") cs.steps rep.Ens.steps.(m);
          Alcotest.(check int)
            (what ^ " rejections") cs.rejected rep.Ens.rejected.(m);
          Alcotest.(check int)
            (what ^ " rhs calls") cs.rhs_calls rep.Ens.rhs_evals.(m))
        scalar)
    [ 1; 3 ];
  Array.map (fun (_, (cs : Om_ode.Odesys.counters)) -> (cs.steps, cs.rejected))
    scalar

(* Twelve members of the branchy oscillator, amplitudes spread over two
   decades so that they switch branches at different times, and the
   decay model with one stiff member among calm ones: no member's steps
   depend on which others share its batch. *)
let test_rkf45_members_are_scalar_runs () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let y0s =
    Array.init 12 (fun m ->
        Array.map (fun v -> v *. (0.1 +. float_of_int m)) (member_y0 c m))
  in
  let counts = check_members_are_scalar_runs c y0s ~tend:2.5 in
  Alcotest.(check bool)
    "members take different step counts" true
    (Array.exists (fun (s, _) -> s <> fst counts.(0)) counts);
  let r = compile_model decay_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let counts =
    check_members_are_scalar_runs c
      (Array.map (decay_member c) [| 1.0; 4000.; 2.5 |])
      ~tend:1.
  in
  Alcotest.(check bool) "the stiff member rejects steps" true
    (snd counts.(1) > 0)

(* ---------- parallel lane dispatch ---------- *)

let test_domains_match_sequential () =
  let r = compile_model branchy_source in
  let c = r.Om_codegen.Pipeline.compiled in
  let n = 8 in
  let y0s = Array.init n (member_y0 c) in
  let run domains =
    let bb = Batch.create c ~width:n in
    let ex = Objectmath.Ensemble_exec.create ~domains bb in
    Fun.protect
      ~finally:(fun () -> Objectmath.Ensemble_exec.shutdown ex)
      (fun () ->
        let ens =
          Ens.create ~dim:c.Bb.dim ~f:(Objectmath.Ensemble_exec.brhs ex) y0s
        in
        Ens.rkf45 ens ~t0:0. ~tend:1.)
  in
  let seq = run 1 and par = run 3 in
  for m = 0 to n - 1 do
    Array.iteri
      (fun i v ->
        check_bits (Printf.sprintf "member %d state %d" m i) v
          par.Ens.final.(m).(i))
      seq.Ens.final.(m)
  done

(* ---------- compile-once sweeps ---------- *)

let sweep_source =
  {|model M; class C parameter k = 1.0; variable x init 1.0;
    equation der(x) = 0.0 - k * x; end; instance c of C;|}

let sweep ?domains source ~cls ~param ~values ~metric =
  Objectmath.Sweep.run ?domains ~source ~cls ~param ~values ~tend:1.
    ~states:[| metric |]
    ()

(* A sweep point steps on its own, but its frozen parameter states
   enter the error norm, so it and a scalar RKF45 run of the source
   with the value written into its text take different steps: they
   agree to the solvers' tolerance (rtol 1e-6), not bit for bit. *)
let substitution_tol = 1e-5

(* [metric]'s final value in a scalar [Rk.rkf45] run of [source v]. *)
let substituted source v metric =
  let fm = Om_lang.Flatten.flatten_string (source (Printf.sprintf "%.17g" v)) in
  let sys = Om_ode.Odesys.of_equations fm.equations in
  let col =
    Om_ode.Odesys.column
      (Om_ode.Rk.rkf45 sys ~t0:0.
         ~y0:(Om_lang.Flat_model.initial_values fm)
         ~tend:1.)
      metric sys
  in
  col.(Array.length col - 1)

let check_substitution source ~cls ~param ~values ~metric =
  let points = sweep (source "1.0") ~cls ~param ~values ~metric in
  Alcotest.(check int) "one point per value" (List.length values)
    (List.length points);
  List.iter2
    (fun v (p : Objectmath.Sweep.point) ->
      Alcotest.(check (float substitution_tol))
        (Printf.sprintf "%s at %s = %g" metric param v)
        (substituted source v metric) p.finals.(0))
    values points

let test_sweep_promotes () =
  let points =
    sweep sweep_source ~cls:"C" ~param:"k" ~values:[ 0.5; 1.; 2.; 4. ]
      ~metric:"c.x"
  in
  List.iter
    (fun (p : Objectmath.Sweep.point) ->
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "exp(-%g)" p.value)
        (Float.exp (Float.neg p.value))
        p.finals.(0);
      Alcotest.(check bool) "steps counted" true (p.steps > 0);
      Alcotest.(check bool) "rhs calls counted" true (p.rhs_calls > 0))
    points

(* Every use of [C] rebinds [k]: no value of [k] reaches the model, and
   both sweeps refuse, naming the rebinding sites. *)
let check_refused source why =
  let shadowed = Om_lang.Override.Shadowed why in
  Alcotest.check_raises "sweep" shadowed (fun () ->
      ignore
        (sweep source ~cls:"C" ~param:"k" ~values:[ 1.; 2. ] ~metric:"c.x"));
  Alcotest.check_raises "monte carlo" shadowed (fun () ->
      ignore
        (Objectmath.Sweep.monte_carlo ~source
           ~specs:[ ("C", "k", Objectmath.Sweep.Uniform (0.5, 2.)) ]
           ~samples:2 ~seed:1 ~tend:1.
           ~state:"c.x"
           ()))

let decay_class =
  {|class C parameter k = 1.0; variable x init 1.0;
    equation der(x) = 0.0 - k * x; end;|}

let test_sweep_instance_rebinding_refused () =
  check_refused
    ("model M; " ^ decay_class ^ " instance c of C with k = 2.0;")
    "parameter k of class C is rebound by instance c"

let test_sweep_part_rebinding_refused () =
  check_refused
    ("model M; " ^ decay_class
   ^ " class D part p : C with k = 2.0; end; instance d of D;")
    "parameter k of class C is rebound by part p of class D"

let test_sweep_subclass_rebinding_refused () =
  check_refused
    ("model M; " ^ decay_class
   ^ " class E extends C with k = 3.0 end; instance e of E;")
    "parameter k of class C is rebound by class E extends C"

(* One instance rebinds [k], the other reads the class default: the
   sweep varies [d] and leaves [c] at its bound value. *)
let mixed_source k =
  Printf.sprintf
    {|model M; class C parameter k = %s; variable x init 1.0;
      equation der(x) = 0.0 - k * x; end;
      instance c of C with k = 2.0; instance d of C;|}
    k

let test_sweep_mixed_instances () =
  let values = [ 0.5; 1.; 3. ] in
  check_substitution mixed_source ~cls:"C" ~param:"k" ~values ~metric:"d.x";
  check_substitution mixed_source ~cls:"C" ~param:"k" ~values ~metric:"c.x";
  List.iter
    (fun (p : Objectmath.Sweep.point) ->
      Alcotest.(check (float 1e-4)) "c keeps k = 2" (Float.exp (-2.)) p.finals.(0))
    (sweep (mixed_source "1.0") ~cls:"C" ~param:"k" ~values ~metric:"c.x")

(* The same through parts: [p] rebinds [k], [q] reads the default. *)
let mixed_parts_source k =
  Printf.sprintf
    {|model M; class C parameter k = %s; variable x init 1.0;
      equation der(x) = 0.0 - k * x; end;
      class D part p : C with k = 2.0; part q : C; end; instance d of D;|}
    k

let test_sweep_mixed_parts () =
  let values = [ 0.5; 1.; 3. ] in
  check_substitution mixed_parts_source ~cls:"C" ~param:"k" ~values
    ~metric:"d.q.x";
  List.iter
    (fun (p : Objectmath.Sweep.point) ->
      Alcotest.(check (float 1e-4))
        "p keeps k = 2" (Float.exp (-2.)) p.finals.(0))
    (sweep (mixed_parts_source "1.0") ~cls:"C" ~param:"k" ~values
       ~metric:"d.p.x")

(* An initial value and a derived parameter that read the swept one. *)
let test_sweep_reads_parameter () =
  let values = [ 0.5; 1.; 2. ] in
  check_substitution
    (Printf.sprintf
       {|model M; class C parameter k = %s; variable x init 2 * k;
         equation der(x) = 0.0 - x; end; instance c of C;|})
    ~cls:"C" ~param:"k" ~values ~metric:"c.x";
  check_substitution
    (Printf.sprintf
       {|model M; class C parameter k = %s; parameter k2 = k * k;
         variable x init 1.0; equation der(x) = 0.0 - k2 * x; end;
         instance c of C;|})
    ~cls:"C" ~param:"k" ~values ~metric:"c.x"

(* A parameter no equation reads still sweeps: equal points are then the
   truth. *)
let test_sweep_unread_parameter () =
  let source =
    {|model M; class C parameter k = 1.0; variable x init 1.0;
      equation der(x) = 0.0 - x; end; instance c of C;|}
  in
  match sweep source ~cls:"C" ~param:"k" ~values:[ 1.; 2. ] ~metric:"c.x" with
  | [ a; b ] -> check_bits "equal points" a.finals.(0) b.finals.(0)
  | _ -> Alcotest.fail "expected two points"

let test_sweep_builds_no_back_end () =
  (* A sweep runs the sequential program only: preparing it and running
     a batch build no per-task back end. *)
  let backs = Om_codegen.Pipeline.back_count () in
  ignore (sweep sweep_source ~cls:"C" ~param:"k" ~values:[ 0.5; 2. ] ~metric:"c.x");
  ignore
    (sweep ~domains:2 (mixed_source "1.0") ~cls:"C" ~param:"k"
       ~values:[ 1.; 2. ] ~metric:"d.x");
  Alcotest.(check int) "no back end built" backs
    (Om_codegen.Pipeline.back_count ())

let test_sweep_no_values () =
  (* An empty sweep has no points; the target is still checked. *)
  List.iter
    (fun source ->
      Alcotest.(check int) "no points" 0
        (List.length (sweep source ~cls:"C" ~param:"k" ~values:[] ~metric:"c.x")))
    [ sweep_source; mixed_source "1.0" ];
  Alcotest.check_raises "refused"
    (Om_lang.Override.Shadowed "parameter k of class C is rebound by instance c")
    (fun () ->
      ignore
        (sweep
           ("model M; " ^ decay_class ^ " instance c of C with k = 2.0;")
           ~cls:"C" ~param:"k" ~values:[] ~metric:"c.x"))

let test_sweep_unknown_param () =
  Alcotest.check_raises "unknown parameter"
    (Om_lang.Override.Unknown_target "parameter nope of class C") (fun () ->
      ignore (sweep sweep_source ~cls:"C" ~param:"nope" ~values:[ 1. ] ~metric:"c.x"))

(* An initial value read from the parameter: each member's initial state
   is evaluated with its own value, x(1) = k/e. *)
let init_source =
  {|model M; class C parameter k = 1.0; variable x init k;
    equation der(x) = 0.0 - x; end; instance c of C;|}

let test_sweep_matches_analytic () =
  let check source expected =
    List.iter
      (fun (p : Objectmath.Sweep.point) ->
        Alcotest.(check (float 1e-4))
          (Printf.sprintf "analytic at %g" p.value)
          (expected p.value) p.finals.(0))
      (sweep source ~cls:"C" ~param:"k" ~values:[ 0.5; 2. ] ~metric:"c.x")
  in
  check sweep_source (fun k -> Float.exp (Float.neg k));
  check init_source (fun k -> k *. Float.exp (-1.))

(* ---------- Monte Carlo ---------- *)

let test_monte_carlo_deterministic () =
  let mc seed =
    Objectmath.Sweep.monte_carlo ~source:sweep_source
      ~specs:[ ("C", "k", Objectmath.Sweep.Uniform (0.5, 2.)) ]
      ~samples:16 ~seed ~tend:1.
      ~state:"c.x"
      ()
  in
  let a = mc 42 and b = mc 42 and c = mc 7 in
  List.iter2
    (fun (x : Objectmath.Sweep.mc_sample) (y : Objectmath.Sweep.mc_sample) ->
      check_bits "same draw" x.draws.(0) y.draws.(0);
      check_bits "same metric" x.mc_final y.mc_final)
    a.Objectmath.Sweep.samples b.Objectmath.Sweep.samples;
  Alcotest.(check bool)
    "different seed, different draws" true
    (List.exists2
       (fun (x : Objectmath.Sweep.mc_sample) (y : Objectmath.Sweep.mc_sample) ->
         x.draws.(0) <> y.draws.(0))
       a.Objectmath.Sweep.samples c.Objectmath.Sweep.samples);
  (* Draws respect the distribution's support, and the metric follows:
     exp(-2) <= x(1) <= exp(-0.5). *)
  List.iter
    (fun (s : Objectmath.Sweep.mc_sample) ->
      Alcotest.(check bool) "draw in range" true
        (s.draws.(0) >= 0.5 && s.draws.(0) <= 2.);
      Alcotest.(check bool) "metric in range" true
        (s.mc_final >= (Float.exp (-2.) -. 1e-3)
        && s.mc_final <= Float.exp (-0.5) +. 1e-3))
    a.Objectmath.Sweep.samples

let () =
  Alcotest.run "om_ensemble"
    [
      ( "vm_batch",
        [
          Alcotest.test_case "matches scalar per lane" `Quick
            test_batch_matches_scalar;
          Alcotest.test_case "width one" `Quick test_batch_width_one;
          Alcotest.test_case "subrange execution" `Quick test_batch_subrange;
          Alcotest.test_case "zero allocation" `Quick test_batch_zero_alloc;
          Alcotest.test_case "one-lane awake runs" `Quick
            test_batch_one_lane_runs;
          Alcotest.test_case "two domains on disjoint halves" `Quick
            test_batch_domains_disjoint_halves;
          Alcotest.test_case "swapped short column rejected" `Quick
            test_batch_rejects_swapped_column;
          Qcheck_seed.to_alcotest prop_diverging_lanes_match_scalar;
        ] );
      ( "batch_backend",
        [
          Alcotest.test_case "matches rhs_fn per lane" `Quick
            test_batch_backend_matches_rhs_fn;
          Alcotest.test_case "zero allocation" `Quick
            test_batch_backend_zero_alloc;
        ] );
      ( "ensemble",
        [
          Alcotest.test_case "rk4 matches scalar runs" `Quick
            test_rk4_matches_scalar_runs;
          Alcotest.test_case "rkf45 batch of one" `Quick
            test_rkf45_batch_of_one_matches_scalar;
          Alcotest.test_case "members are their own scalar runs" `Quick
            test_rkf45_members_are_scalar_runs;
          Alcotest.test_case "domains match sequential" `Quick
            test_domains_match_sequential;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "compile-once promotion" `Quick
            test_sweep_promotes;
          Alcotest.test_case "instance rebinding refused" `Quick
            test_sweep_instance_rebinding_refused;
          Alcotest.test_case "part rebinding refused" `Quick
            test_sweep_part_rebinding_refused;
          Alcotest.test_case "subclass rebinding refused" `Quick
            test_sweep_subclass_rebinding_refused;
          Alcotest.test_case "mixed instances" `Quick
            test_sweep_mixed_instances;
          Alcotest.test_case "mixed parts" `Quick test_sweep_mixed_parts;
          Alcotest.test_case "reads the parameter" `Quick
            test_sweep_reads_parameter;
          Alcotest.test_case "unread parameter" `Quick
            test_sweep_unread_parameter;
          Alcotest.test_case "unknown parameter" `Quick
            test_sweep_unknown_param;
          Alcotest.test_case "no values" `Quick test_sweep_no_values;
          Alcotest.test_case "builds no back end" `Quick
            test_sweep_builds_no_back_end;
          Alcotest.test_case "matches analytic" `Quick
            test_sweep_matches_analytic;
          Alcotest.test_case "monte carlo deterministic" `Quick
            test_monte_carlo_deterministic;
        ] );
    ]
