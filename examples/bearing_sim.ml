(* The paper's flagship application: the 2D rolling bearing (fig. 4-6).

   Builds the model, reproduces the dependency analysis, simulates the
   bearing dynamics with the LSODA-style solver, and executes the
   generated right-hand-side tasks on both simulated target machines.

   Run with:  dune exec examples/bearing_sim.exe *)

module R = Objectmath.Runtime
module Machine = Om_machine.Machine

let () =
  Printf.printf "building the 2D rolling bearing model...\n";
  let fm = Om_models.Bearing2d.model () in
  let r = Om_codegen.Pipeline.compile fm in
  Printf.printf "  %d state variables, %d tasks, %.0f kflop per RHS call\n"
    (Om_lang.Flat_model.dim fm)
    (Array.length r.tasks)
    (Om_sched.Task.total_cost r.tasks /. 1000.);

  (* Dependency structure: one giant SCC (paper figure 6). *)
  let a = r.analysis in
  Printf.printf "  SCCs: %d (sizes %s) — all computation in one subsystem\n"
    a.comps.count
    (String.concat ", "
       (Array.to_list
          (Array.map (fun m -> string_of_int (List.length m)) a.comps.members)));

  (* Simulate half a shaft revolution and report the dynamics. *)
  let tend = 5e-3 in
  Printf.printf "\nsimulating %.3f s of bearing motion (LSODA)...\n" tend;
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false
      fm.equations
  in
  let y0 = Om_lang.Flat_model.initial_values fm in
  let res = Om_ode.Lsoda.integrate sys ~t0:0. ~y0 ~tend in
  let traj = res.trajectory in
  let time_series name = Om_ode.Odesys.column traj name sys in
  let iy = time_series "Inner.y" in
  let w1r = time_series "W[1].R" in
  let n = Array.length traj.ts in
  Printf.printf "  %d accepted steps, %d RHS calls, final mode %s\n"
    sys.counters.steps sys.counters.rhs_calls
    (match res.final_mode with Adams_mode -> "adams" | Bdf_mode -> "bdf");
  Printf.printf "  inner ring settles at y = %.4f mm under the 500 N load\n"
    (1000. *. iy.(n - 1));
  Printf.printf "  roller 1 rides at radius %.3f mm\n" (1000. *. w1r.(n - 1));

  (* How many rollers carry load at the end? (contact conditionals) *)
  let loaded = ref 0 in
  let yf = Om_ode.Odesys.final_state traj in
  let idx name =
    match Array.find_index (fun n -> n = name) sys.names with
    | Some i -> i
    | None -> assert false
  in
  for k = 1 to 10 do
    let r_k = yf.(idx (Printf.sprintf "W[%d].R" k)) in
    let fi_k = yf.(idx (Printf.sprintf "W[%d].Fi" k)) in
    let px = r_k *. Float.cos fi_k and py = r_k *. Float.sin fi_k in
    let ix = yf.(idx "Inner.x") and iy' = yf.(idx "Inner.y") in
    let dist = Float.hypot (px -. ix) (py -. iy') in
    if 0.05 -. dist > 0. then incr loaded
  done;
  Printf.printf "  %d of 10 rollers in contact with the inner raceway\n"
    !loaded;

  (* The inner ring's orbit under load, as an SVG plot. *)
  let times = Array.init 200 (fun i -> tend *. float_of_int i /. 199.) in
  let samples = Om_ode.Odesys.sample traj ~times in
  let orbit =
    Om_viz.Plot.series "inner ring orbit [mm]"
      (Array.to_list
         (Array.map
            (fun y -> (1000. *. y.(idx "Inner.x"), 1000. *. y.(idx "Inner.y")))
            samples))
  in
  Om_viz.Plot.save_svg ~path:"bearing_orbit.svg"
    ~title:"Inner ring centre orbit under 500 N load" ~x_label:"x [mm]"
    ~y_label:"y [mm]" [ orbit ];
  Printf.printf "  orbit plot written to bearing_orbit.svg\n";

  (* Parallel execution of the generated code on both 1995 machines. *)
  Printf.printf "\nparallel RHS execution (simulated machines):\n";
  List.iter
    (fun (m : Machine.t) ->
      Printf.printf "  %s:\n" m.name;
      List.iter
        (fun workers ->
          let config =
            { R.default_config with
              R.machine = m; nworkers = workers;
              strategy = Om_machine.Supervisor.Broadcast_state;
              scheduling = R.Semidynamic 10 }
          in
          let rep = R.execute ~config ~solver:(R.Rk4 2e-5) ~tend:1e-3 r in
          Printf.printf
            "    %2d workers: %7.1f RHS-calls/s (sched overhead %.2f%%)\n"
            workers rep.rhs_calls_per_sec
            (100. *. rep.sched_overhead_seconds /. rep.sim_seconds))
        [ 1; 4; 7 ])
    [ Machine.sparccenter_2000; Machine.parsytec_gcpp ]
