(* Benchmark harness: one entry per table/figure of the paper plus
   ablations.  Run everything with `dune exec bench/main.exe`, or a single
   experiment with `dune exec bench/main.exe -- fig12`.

   Paper: Andersson & Fritzson, "Generating Parallel Code from Object
   Oriented Mathematical Models", PPoPP 1995. *)

module R = Objectmath.Runtime
module P = Om_codegen.Pipeline
module Stats = Om_codegen.Stats
module Machine = Om_machine.Machine
module Sup = Om_machine.Supervisor
module Fm = Om_lang.Flat_model
module Scc = Om_graph.Scc
module D = Om_graph.Digraph

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let out_dir = "bench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* Models are compiled lazily and shared between experiments. *)
let bearing = lazy (P.compile (Om_models.Bearing2d.model ()))
let plant = lazy (P.compile (Om_models.Powerplant.model ()))
let servo = lazy (P.compile (Om_models.Servo.model ()))

let config ?(machine = Machine.sparccenter_2000) ?(nworkers = 1)
    ?(strategy = Sup.Broadcast_state) ?(scheduling = R.Static)
    ?(topology = R.Flat) ?(execution = R.Simulated) () =
  {
    R.default_config with
    R.machine;
    nworkers;
    strategy;
    scheduling;
    topology;
    execution;
  }

(* ------------------------------------------------------------------ *)
(* Figure 3: dependency graph / SCCs of the hydroelectric plant.       *)

let scc_report name (r : P.result) =
  let a = r.analysis in
  Printf.printf "%s: %d equations, %d SCCs (%d nontrivial)\n" name
    (Fm.dim r.model) a.comps.count
    (List.length a.nontrivial);
  let sizes = Array.map List.length a.comps.members in
  let hist = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      Hashtbl.replace hist s (1 + Option.value ~default:0 (Hashtbl.find_opt hist s)))
    sizes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist []
  |> List.sort compare
  |> List.iter (fun (size, count) ->
         Printf.printf "  %2d SCC(s) of %d equation(s)\n" count size)

let fig3 () =
  section "Figure 3 — dependency graph and SCCs, hydroelectric power plant";
  ensure_out_dir ();
  let r = Lazy.force plant in
  let a = r.analysis in
  scc_report "PowerPlant" r;
  Printf.printf "\nStrongly connected components:\n";
  Array.iteri
    (fun k members ->
      let labels = List.map (D.label a.graph) members in
      Printf.printf "  SCC %2d: %s\n" k (String.concat ", " labels))
    a.comps.members;
  let layers = Om_graph.Topo.layers a.condensed in
  Printf.printf "\nCondensation layers (parallel fronts):\n";
  List.iteri
    (fun i l ->
      Printf.printf "  layer %d: %s\n" i
        (String.concat ", " (List.map (D.label a.condensed) l)))
    layers;
  let dot = Om_graph.Dot.with_components a.graph a.comps in
  Om_graph.Dot.save (Filename.concat out_dir "fig3_powerplant.dot") dot;
  Printf.printf "\nDOT graph written to %s/fig3_powerplant.dot\n" out_dir;
  Printf.printf
    "Paper: multiple separate SCCs (per-gate loops, dam, regulator) -> the\n\
     plant partitions; reproduced: %d SCCs with six 4-equation gate loops.\n"
    a.comps.count

(* ------------------------------------------------------------------ *)
(* Figure 6: SCCs of the 2D rolling bearing.                           *)

let fig6 () =
  section "Figure 6 — dependency graph and SCCs, 2D rolling bearing";
  ensure_out_dir ();
  let r = Lazy.force bearing in
  let a = r.analysis in
  scc_report "Bearing2D" r;
  Array.iteri
    (fun k members ->
      let labels = List.map (D.label a.graph) members in
      if List.length members <= 6 then
        Printf.printf "  SCC %2d: %s\n" k (String.concat ", " labels)
      else
        Printf.printf "  SCC %2d: %d equations (%s, ...)\n" k
          (List.length members)
          (String.concat ", "
             (List.filteri (fun i _ -> i < 5) labels)))
    a.comps.members;
  let dot = Om_graph.Dot.with_components a.graph a.comps in
  Om_graph.Dot.save (Filename.concat out_dir "fig6_bearing.dot") dot;
  Printf.printf "DOT graph written to %s/fig6_bearing.dot\n" out_dir;
  Printf.printf
    "Paper: \"all equations are strongly connected except one\" (2 SCCs).\n\
     Reproduced: %d SCCs; the driven rotation Inner.theta is the trivial one.\n"
    a.comps.count

(* ------------------------------------------------------------------ *)
(* Figure 5: inheritance hierarchy and composition of the 2D bearing.  *)

let fig5 () =
  section
    "Figure 5 — inheritance hierarchy and composition, 2D bearing model";
  ensure_out_dir ();
  let ast = Om_lang.Parser.parse_model (Om_models.Bearing2d.source ()) in
  Printf.printf "inheritance hierarchy:\n%s\n"
    (Om_lang.Browser.inheritance_tree ast);
  Printf.printf "composition structure:\n%s"
    (Om_lang.Browser.composition_tree ast);
  let path = Filename.concat out_dir "fig5_bearing_structure.dot" in
  Om_graph.Dot.save path (Om_lang.Browser.to_dot ast);
  Printf.printf "\nstructure graph written to %s\n" path;
  Printf.printf
    "\nPaper Figure 5: the bearing model's class hierarchy is rooted at\n\
     SpinningElement and refines through Body into Roller and the rings,\n\
     with the rolling elements as an instance array — the same shape as\n\
     reproduced above (the paper's extra CoordinateSystem/Contact layers\n\
     handle 3D coordinate transforms that the 2D model does not need).\n"

(* ------------------------------------------------------------------ *)
(* §2.5.1: equation-system-level parallelism across the three models.  *)

let syslevel () =
  section
    "Table (§2.5.1) — equation-system-level parallelism per application";
  Printf.printf
    "%-12s %6s %6s %13s %14s %14s %14s %14s\n" "model" "eqs" "SCCs"
    "max speedup" "p=8, comm=0" "p=8, SMP comm" "p=8, DM comm"
    "pipeline p=8";
  (* Cost of shipping one subsystem's interface values per solver step,
     in flop units; a compiler falls back to the serial solution when the
     partitioned schedule is slower, hence the clamp at 1. *)
  let comm_flops (m : Machine.t) =
    ((2. *. m.latency) +. (16. *. m.per_byte)) /. m.flop_time
  in
  List.iter
    (fun (name, r) ->
      let r : P.result = Lazy.force r in
      let a = r.analysis in
      let dim = Fm.dim r.model in
      let max_sp =
        Om_sched.Dag_sched.max_speedup a.condensed ~weights:a.scc_weights
      in
      let sp comm =
        Float.max 1. (P.system_level_speedup a ~comm ~nprocs:8)
      in
      let pipe =
        Om_sched.Dag_sched.pipeline_throughput a.condensed
          ~weights:a.scc_weights ~nprocs:8
      in
      Printf.printf "%-12s %6d %6d %13.2f %14.2f %14.2f %14.2f %14.2f\n"
        name dim a.comps.count max_sp (sp 0.)
        (sp (comm_flops Machine.sparccenter_2000))
        (sp (comm_flops Machine.parsytec_gcpp))
        pipe)
    [ ("servo", servo); ("powerplant", plant); ("bearing2d", bearing) ];
  Printf.printf
    "(speedups below 1 are clamped: the compiler keeps the serial code;\n\
     the pipeline column is §2.1's \"values produced from the solution of\n\
     one system are continuously passed as input for the solution of\n\
     another\" — a throughput bound, not a latency speedup)\n";
  Printf.printf
    "\nPaper: \"the hydroelectric power station model and the trivial\n\
     servo-example could be reasonably parallelized through such\n\
     partitioning, whereas the 2D bearing model only yielded two SCCs\";\n\
     the technique \"cannot in general be expected to pay off\".\n"

(* ------------------------------------------------------------------ *)
(* Figure 10: the supervisor/worker scheme, as a round Gantt chart.    *)

let fig10 () =
  section "Figure 10 — supervisor/worker execution of one RHS round";
  ensure_out_dir ();
  let r = Lazy.force bearing in
  let costs = Om_codegen.Bytecode_backend.task_costs_static r.compiled in
  let reads = Array.map (fun t -> t.Om_sched.Task.reads) r.tasks in
  let writes = Array.map (fun t -> t.Om_sched.Task.writes) r.tasks in
  List.iter
    (fun ((m : Machine.t), file) ->
      let w = 4 in
      let sched = Om_sched.Lpt.schedule ~costs r.tasks ~nprocs:w in
      let result, trace =
        Om_machine.Supervisor.round_traced m ~nworkers:w
          ~assignment:sched.assignment ~task_flops:costs ~task_reads:reads
          ~task_writes:writes ~state_dim:r.compiled.dim
          ~strategy:Sup.Broadcast_state
      in
      let row_labels =
        "supervisor" :: List.init w (Printf.sprintf "worker %d")
      in
      let segments =
        List.map
          (fun (s : Om_machine.Supervisor.segment) ->
            {
              Om_viz.Plot.row = s.who + 1;
              t_start = s.t0 *. 1e3;
              t_end = s.t1 *. 1e3;
              category =
                (match s.kind with
                | `Send -> "send state"
                | `Compute -> "compute RHS"
                | `Recv -> "receive results");
            })
          trace
      in
      let path = Filename.concat out_dir file in
      let svg =
        Om_viz.Plot.gantt_svg
          ~title:
            (Printf.sprintf "%s: one RHS round, 4 workers (%.2f ms)" m.name
               (1e3 *. result.duration))
          ~row_labels segments
      in
      let oc = open_out path in
      output_string oc svg;
      close_out oc;
      Printf.printf
        "%-20s round %.3f ms (supervisor busy %.3f ms) -> %s\n" m.name
        (1e3 *. result.duration)
        (1e3 *. result.supervisor_busy)
        path)
    [
      (Machine.sparccenter_2000, "fig10_gantt_sparc.svg");
      (Machine.parsytec_gcpp, "fig10_gantt_parsytec.svg");
    ];
  Printf.printf
    "\nPaper Figure 10: the solver (supervisor) ships the state to the\n\
     workers, they evaluate their RHS tasks, results return.  On the\n\
     Parsytec the send/receive bars dominate the lane — the latency wall\n\
     of §4 made visible.\n"

(* ------------------------------------------------------------------ *)
(* §3.3: code generation statistics for the 2D bearing.                *)

let table_codegen () =
  section "Table (§3.3) — generated code statistics, 2D bearing";
  let src = Om_models.Bearing2d.source () in
  let r = Lazy.force bearing in
  let s = Stats.collect ~source:src r in
  Format.printf "%a@." Stats.pp s;
  let ratio a b = float_of_int a /. float_of_int b in
  Printf.printf "Shape comparison with the paper's 2D bearing:\n";
  Printf.printf "  %-42s %10s %12s\n" "" "paper" "this repo";
  Printf.printf "  %-42s %10s %12d\n" "ObjectMath source lines" "560"
    (Option.get s.source_lines);
  Printf.printf "  %-42s %10s %12d\n" "intermediate form lines" "11859"
    s.intermediate_lines;
  Printf.printf "  %-42s %10.1f %12.1f\n" "expansion ratio source->intermediate"
    (11859. /. 560.)
    (ratio s.intermediate_lines (Option.get s.source_lines));
  Printf.printf "  %-42s %10s %12d\n" "parallel F90 lines" "10913"
    s.fortran_parallel_lines;
  Printf.printf "  %-42s %10.2f %12.2f\n" "declaration share of parallel F90"
    (4709. /. 10913.)
    (ratio s.fortran_parallel_decls s.fortran_parallel_lines);
  Printf.printf "  %-42s %10s %12d\n" "serial F90 lines" "4301"
    s.fortran_serial_lines;
  Printf.printf "  %-42s %10.2f %12.2f\n" "serial/parallel F90 size ratio"
    (4301. /. 10913.)
    (ratio s.fortran_serial_lines s.fortran_parallel_lines);
  Printf.printf "  %-42s %10s %12d\n" "CSEs, parallel (per-task)" "4642"
    s.cse_parallel;
  Printf.printf "  %-42s %10s %12d\n" "CSEs, serial (global)" "1840"
    s.cse_serial;
  Printf.printf "  %-42s %10.2f %12.2f\n" "CSE ratio serial/parallel"
    (1840. /. 4642.)
    (ratio s.cse_serial s.cse_parallel)

(* ------------------------------------------------------------------ *)
(* §3.2.3: semi-dynamic LPT overhead.                                  *)

let lpt_overhead () =
  section "Table (§3.2.3) — semi-dynamic LPT rescheduling overhead";
  let r = Lazy.force bearing in
  Printf.printf "%-8s %12s %14s %12s\n" "period" "reschedules" "overhead s"
    "share %%";
  List.iter
    (fun period ->
      let rep =
        R.execute
          ~config:(config ~nworkers:7 ~scheduling:(R.Semidynamic period) ())
          ~solver:(R.Rk4 2e-5) ~tend:4e-3 r
      in
      Printf.printf "%-8d %12d %14.5f %11.3f%%\n" period rep.reschedules
        rep.sched_overhead_seconds
        (100. *. rep.sched_overhead_seconds /. rep.sim_seconds))
    [ 5; 10; 25; 100 ];
  Printf.printf
    "\nPaper: the semi-dynamic LPT \"consumes less than 1%% of the execution\n\
     time for the 2D bearing simulation examples so far investigated\".\n"

(* ------------------------------------------------------------------ *)
(* §4: message latency of the two machines.                            *)

let latency () =
  section "Table (§4) — message cost on the two target machines";
  Printf.printf "%-20s %18s %20s\n" "machine" "1-byte msg [us]"
    "state vector [us]";
  let r = Lazy.force bearing in
  let dim = Fm.dim r.model in
  List.iter
    (fun (m : Machine.t) ->
      Printf.printf "%-20s %18.1f %20.1f\n" m.name
        (1e6 *. Machine.message_time m ~bytes:1)
        (1e6 *. Machine.message_time m ~bytes:((dim + 1) * 8)))
    [ Machine.sparccenter_2000; Machine.parsytec_gcpp ];
  Printf.printf
    "\nPaper: \"A message of 1 byte takes 4 us ... on the shared memory\n\
     architecture and 140 us on the distributed memory machine.\"\n"

(* ------------------------------------------------------------------ *)
(* Figure 12: #RHS-calls/s vs number of processors.                    *)

let fig12 () =
  section "Figure 12 — #RHS-calls/s vs worker processors, 2D bearing";
  let r = Lazy.force bearing in
  let tend = 2e-3 in
  let solver = R.Rk4 (tend /. 100.) in
  let series (m : Machine.t) =
    List.map
      (fun workers ->
        let rep =
          R.execute ~config:(config ~machine:m ~nworkers:workers ()) ~solver
            ~tend r
        in
        (workers, rep.rhs_calls_per_sec))
      (List.init 18 (fun i -> i))
  in
  let sparc = series Machine.sparccenter_2000 in
  let parsytec = series Machine.parsytec_gcpp in
  Printf.printf "%-6s %22s %22s\n" "procs" "SPARCCenter 2000"
    "Parsytec GC/PP";
  List.iter2
    (fun (p, s) (_, d) ->
      if p = 0 then
        Printf.printf "%-6s %22.1f %22.1f   (solver-local reference)\n"
          "local" s d
      else Printf.printf "%-6d %22.1f %22.1f\n" p s d)
    sparc parsytec;
  let peak l =
    List.fold_left
      (fun (bp, bv) (p, v) -> if p > 0 && v > bv then (p, v) else (bp, bv))
      (0, 0.) l
  in
  let sp, sv = peak sparc and pp_, pv = peak parsytec in
  let base = List.assoc 1 sparc in
  ensure_out_dir ();
  let svg_series name l =
    Om_viz.Plot.series name
      (List.filter_map
         (fun (p, v) -> if p >= 1 then Some (float_of_int p, v) else None)
         l)
  in
  Om_viz.Plot.save_svg
    ~path:(Filename.concat out_dir "fig12_speedup.svg")
    ~title:"2D bearing: #RHS-calls/s vs worker processors"
    ~x_label:"worker processors" ~y_label:"#RHS-calls / s"
    [ svg_series "SPARCCenter 2000" sparc; svg_series "Parsytec GC/PP" parsytec ];
  Printf.printf "\nSVG written to %s/fig12_speedup.svg\n" out_dir;
  Printf.printf
    "SPARC peak:    %.0f calls/s at %d processors (%.1fx over 1 proc)\n" sv
    sp (sv /. base);
  Printf.printf
    "Parsytec peak: %.0f calls/s at %d processors (%.1fx over 1 proc)\n" pv pp_
    (pv /. List.assoc 1 parsytec);
  Printf.printf
    "\nPaper: almost linear speedup up to 7 processors on the SPARC with a\n\
     knee from UNIX timesharing; the Parsytec peaks at 4 processors, after\n\
     which latency and contention dominate.\n"

(* ------------------------------------------------------------------ *)
(* §6: projected speedup for large (3D-class) bearing problems.        *)

let scaling () =
  section "Table (§6) — projected speedup for large bearing problems";
  (* A 1995 low-latency MPP (Cray T3D class) for the projection. *)
  let mpp = Machine.t3d_class_mpp in
  let problems =
    [
      ("2D bearing (10 rollers)", lazy (Lazy.force bearing));
      ( "3D-class (30 rollers, order 40)",
        lazy (P.compile (Om_models.Bearing_scaled.model ())) );
      ( "3D-class (45 rollers, order 60)",
        lazy
          (P.compile
             (Om_models.Bearing_scaled.model ~n_rollers:45 ~profile_order:60
                ())) );
    ]
  in
  Printf.printf "%-34s %12s | %s\n" "problem" "RHS kflops"
    "speedup at workers 15 / 63 / 127 / 255 / 511 (MPP)";
  List.iter
    (fun (name, r) ->
      let r : P.result = Lazy.force r in
      let flops = Om_sched.Task.total_cost r.tasks /. 1000. in
      let sp w = R.speedup ~machine:mpp ~nworkers:w r in
      Printf.printf "%-34s %12.0f | %7.1f %7.1f %7.1f %7.1f %7.1f\n" name
        flops (sp 15) (sp 63) (sp 127) (sp 255) (sp 511))
    problems;
  (* The paper's 100-300x claim comes from "preliminary analysis and
     test runs of subsets" of the 3D applications: an analytic projection
     to full 3D-problem sizes, which we reproduce by running the machine
     model directly on synthetic task sets of the projected weight (tasks
     of ~3 kflop, ~10 state reads each, needed-only messages). *)
  Printf.printf
    "\nProjection to full 3D bearing problems (analytic, as in the paper):\n";
  Printf.printf "%-34s %12s | %s\n" "projected problem" "RHS Mflops"
    "speedup at workers 63 / 127 / 255 / 511 (MPP)";
  let project total_flops =
    let task_cost = 3000. in
    let n = int_of_float (total_flops /. task_cost) in
    let task_flops = Array.make n task_cost in
    let task_reads = Array.init n (fun i -> List.init 10 (fun k -> (i + k) mod (n / 3 + 1))) in
    let task_writes = Array.init n (fun i -> [ i ]) in
    let state_dim = (n / 3) + 1 in
    let seq = total_flops *. mpp.Machine.flop_time in
    fun w ->
      let assignment = Array.init n (fun i -> i mod w) in
      let round =
        Sup.round mpp ~nworkers:w ~assignment ~task_flops ~task_reads
          ~task_writes ~state_dim ~strategy:Sup.Needed_only
      in
      seq /. round.duration
  in
  List.iter
    (fun mflops ->
      let sp = project (mflops *. 1e6) in
      Printf.printf "%-34s %12.0f | %7.1f %7.1f %7.1f %7.1f\n"
        (Printf.sprintf "3D bearing, %.0f Mflop RHS" mflops)
        mflops (sp 63) (sp 127) (sp 255) (sp 511))
    [ 1.; 5.; 20. ];
  Printf.printf
    "\nPaper: \"Preliminary analysis and test runs ... indicate that a\n\
     potential speedup of 100-300 will be possible for large bearing\n\
     problems\" given low latency, high bandwidth and heavy right-hand\n\
     sides.\n"

(* ------------------------------------------------------------------ *)
(* §3.2.1: generated Jacobian vs numeric difference approximation.     *)

let table_jacobian () =
  section
    "Table (§3.2.1) — generated Jacobian vs numeric approximation, 2D \
     bearing (BDF2)";
  let fm = Om_models.Bearing2d.model () in
  let jg = Om_codegen.Jacobian_gen.generate fm in
  Printf.printf
    "sparse Jacobian: %d nonzeros of %d entries (%.1f%% dense), %d CSE \
     temps,\n%.0f flops per evaluation vs %.0f for the (dim+1)-call \
     numeric scheme\n\n"
    (Om_codegen.Jacobian_gen.nonzero_count jg)
    (jg.dim * jg.dim)
    (100. *. Om_codegen.Jacobian_gen.density jg)
    (Om_codegen.Cse.temp_count jg.block)
    (Om_codegen.Jacobian_gen.flops jg)
    (float_of_int (jg.dim + 1) *. Om_lang.Flat_model.total_rhs_flops fm);
  let y0 = Om_lang.Flat_model.initial_values fm in
  let flop_time = Machine.sparccenter_2000.flop_time in
  let rhs_flops = Om_lang.Flat_model.total_rhs_flops fm in
  Printf.printf "%-12s %10s %10s %22s\n" "Jacobian" "RHS calls" "Jac calls"
    "simulated compute [s]";
  let run name sys jac_flops =
    Om_ode.Odesys.reset_counters sys;
    let _ =
      Om_ode.Bdf.integrate ~order:2 sys ~t0:0. ~y0 ~tend:5e-4 ~h:2e-6
    in
    let t =
      ((float_of_int sys.Om_ode.Odesys.counters.rhs_calls *. rhs_flops)
      +. (float_of_int sys.counters.jac_calls *. jac_flops))
      *. flop_time
    in
    Printf.printf "%-12s %10d %10d %22.3f\n" name sys.counters.rhs_calls
      sys.counters.jac_calls t
  in
  run "numeric"
    (Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false fm.equations)
    0.
  (* numeric jacobians cost RHS calls, already counted *);
  run "generated"
    (Om_ode.Odesys.of_equations fm.equations)
    (Om_codegen.Jacobian_gen.flops jg);
  Printf.printf
    "\nPaper §3.2.1: providing the solver with a generated Jacobian \
     function\ninstead of the internal difference approximation \"might \
     be reduced\ndrastically\" — reproduced: ~24x fewer RHS evaluations \
     on the stiff path.\n"

(* ------------------------------------------------------------------ *)
(* Ablation A: CSE scope.                                              *)

let ablation_cse () =
  section "Ablation A — common-subexpression-elimination scope";
  let m = Om_models.Bearing2d.model () in
  Printf.printf "%-12s %10s %12s %12s %16s %16s\n" "CSE scope" "temps"
    "RHS kflops" "max task" "SPARC w=7 speedup" "w=7 round [ms]";
  List.iter
    (fun (name, scope) ->
      let cfg = { P.default_config with cse_scope = scope } in
      let r = P.compile ~config:cfg m in
      let total = Om_sched.Task.total_cost r.tasks in
      let sp = R.speedup ~machine:Machine.sparccenter_2000 ~nworkers:7 r in
      let round = R.round_seconds ~config:(config ~nworkers:7 ()) r in
      Printf.printf "%-12s %10d %12.1f %12.0f %16.2f %16.3f\n" name
        r.compiled.cse_temp_total (total /. 1000.)
        (Om_sched.Task.max_cost r.tasks)
        sp (1000. *. round))
    [ ("none", Om_codegen.Bytecode_backend.Cse_none);
      ("per-task", Om_codegen.Bytecode_backend.Cse_per_task) ];
  (* Global CSE corresponds to the serial code: report its cost. *)
  let serial =
    P.compile
      ~config:{ P.default_config with cse_scope = Om_codegen.Bytecode_backend.Cse_global }
      m
  in
  Printf.printf "%-12s %10d %12.1f %12s %16s\n" "global" serial.compiled.cse_temp_total
    (Om_sched.Task.total_cost serial.tasks /. 1000.)
    "-" "(serial reference)";
  Printf.printf
    "(absolute round time is what matters: scope `none' parallelises a\n\
     little better but computes twice the work)\n";
  Printf.printf
    "\nPaper §3.3: per-task CSE cannot share \"several large subexpressions\"\n\
     between equations, hence more extracted temporaries and more total\n\
     work than the globally-optimized serial code.\n"

(* ------------------------------------------------------------------ *)
(* Ablation B: static vs semi-dynamic scheduling under varying load.   *)

let ablation_sched () =
  section "Ablation B — static vs semi-dynamic LPT under conditional load";
  let r = Lazy.force bearing in
  let n_tasks = Array.length r.tasks in
  let run scheduling =
    R.execute
      ~config:(config ~nworkers:7 ~scheduling ())
      ~solver:(R.Rk4 2e-5) ~tend:4e-3 r
  in
  let rows =
    [
      ("static (estimated costs)", run R.Static);
      ("static (uniform costs)", run (R.Static_with (Array.make n_tasks 1.)));
      ("semi-dynamic, period 10", run (R.Semidynamic 10));
      ("semi-dynamic, period 50", run (R.Semidynamic 50));
    ]
  in
  Printf.printf "%-28s %16s %14s %12s\n" "scheduling" "RHS calls/s"
    "overhead s" "reschedules";
  List.iter
    (fun (name, (rep : R.report)) ->
      Printf.printf "%-28s %16.1f %14.5f %12d\n" name rep.rhs_calls_per_sec
        rep.sched_overhead_seconds rep.reschedules)
    rows;
  Printf.printf
    "\nPaper §3.2.3: conditional right-hand sides shift load over time;\n\
     feeding measured times back into LPT keeps the schedule balanced at\n\
     under 1%% overhead.\n"

(* ------------------------------------------------------------------ *)
(* Ablation C: task granularity.                                       *)

let ablation_grain () =
  section "Ablation C — task granularity (split threshold)";
  let m = Om_models.Bearing2d.model () in
  Printf.printf "%-16s %8s %12s %18s %18s\n" "split threshold" "tasks"
    "max task" "SPARC w=7 speedup" "Parsytec w=3 speedup";
  List.iter
    (fun threshold ->
      let cfg = { P.default_config with split_threshold = threshold } in
      let r = P.compile ~config:cfg m in
      let s = R.speedup ~machine:Machine.sparccenter_2000 ~nworkers:7 r in
      let d = R.speedup ~machine:Machine.parsytec_gcpp ~nworkers:3 r in
      Printf.printf "%-16.0f %8d %12.0f %18.2f %18.2f\n" threshold
        (Array.length r.tasks)
        (Om_sched.Task.max_cost r.tasks)
        s d)
    [ 500.; 1000.; 2000.; 4000.; 8000.; 1e9 ];
  Printf.printf
    "\nPaper §4: \"To be able to increase the performance the problem has to\n\
     have a larger granularity\" — but finer tasks only help while the\n\
     per-message cost stays below the per-task computation.\n"

(* ------------------------------------------------------------------ *)
(* Ablation D: message strategy (paper §3.2's planned improvement).     *)

let ablation_comm () =
  section "Ablation D — message composition (broadcast vs needed-only)";
  let r = Lazy.force bearing in
  let info =
    Om_codegen.Comm_analysis.analyse r.plan
      ~state_names:(Fm.state_names r.model)
  in
  Printf.printf
    "tasks read on average %.0f%% of the state vector\n\n"
    (100. *. Om_codegen.Comm_analysis.read_fraction info ~dim:r.compiled.dim);
  Printf.printf "%-10s %26s %26s\n" "workers" "broadcast [RHS-calls/s]"
    "needed-only [RHS-calls/s]";
  List.iter
    (fun w ->
      let rate strategy =
        1.
        /. R.round_seconds
             ~config:(config ~machine:Machine.parsytec_gcpp ~nworkers:w
                        ~strategy ())
             r
      in
      Printf.printf "%-10d %26.1f %26.1f\n" w (rate Sup.Broadcast_state)
        (rate Sup.Needed_only))
    [ 1; 2; 4; 8; 16 ];
  Printf.printf
    "\nPaper §3.2: \"Currently, every variable that might be used is passed\n\
     to the worker processors, i.e. all variables in the state vector ...\n\
     This composition of smaller messages instead of sending the whole\n\
     state will be implemented in the future.\"  The needed-only column\n\
     is that future improvement, on the high-latency machine.\n"

(* ------------------------------------------------------------------ *)
(* Ablation E: scatter/gather topology at scale.                        *)

let ablation_topology () =
  section "Ablation E — flat vs tree scatter/gather on a large machine";
  let r = P.compile (Om_models.Bearing_scaled.model ()) in
  let mpp = Machine.t3d_class_mpp in
  let costs = Om_codegen.Bytecode_backend.task_costs_static r.compiled in
  let reads = Array.map (fun t -> t.Om_sched.Task.reads) r.tasks in
  let writes = Array.map (fun t -> t.Om_sched.Task.writes) r.tasks in
  let seq = Om_machine.Supervisor.sequential_time mpp ~task_flops:costs in
  Printf.printf "3D-class bearing (%.0f kflop RHS) on the 512-node MPP:\n\n"
    (Array.fold_left ( +. ) 0. costs /. 1000.);
  Printf.printf "%-10s %18s %18s %18s\n" "workers" "flat speedup"
    "tree (fanout 2)" "tree (fanout 4)";
  List.iter
    (fun w ->
      let sched = Om_sched.Lpt.schedule ~costs r.tasks ~nprocs:w in
      let flat =
        (Om_machine.Supervisor.round mpp ~nworkers:w
           ~assignment:sched.assignment ~task_flops:costs ~task_reads:reads
           ~task_writes:writes ~state_dim:r.compiled.dim
           ~strategy:Sup.Broadcast_state)
          .duration
      in
      let tree fanout =
        (Om_machine.Supervisor.tree_round mpp ~fanout ~nworkers:w
           ~assignment:sched.assignment ~task_flops:costs ~task_reads:reads
           ~task_writes:writes ~state_dim:r.compiled.dim)
          .duration
      in
      Printf.printf "%-10d %18.1f %18.1f %18.1f\n" w (seq /. flat)
        (seq /. tree 2) (seq /. tree 4))
    [ 15; 31; 63; 127 ];
  Printf.printf
    "\nPaper §3.2.3: \"As the application, and thus the number of ODEs\n\
     increases, larger messages need to be sent between the solver process\n\
     and all the workers.  This must be handled efficiently to make the\n\
     application scalable.\"  The tree removes the O(workers) message\n\
     serialisation at the supervisor.\n"

(* ------------------------------------------------------------------ *)
(* Extension: the PDE path of paper §6.                                 *)

let extension_pde () =
  section "Extension (§6) — partial differential equations";
  let cases =
    [
      ("heat 1D, 101 nodes", Om_pde.Discretize.heat_1d ~n:101 ());
      ( "advection-diffusion, 201 nodes",
        Om_pde.Discretize.advection_diffusion_1d ~n:201 () );
      ("Burgers (fluid), 101 nodes", Om_pde.Discretize.burgers_1d ~n:101 ());
      ("wave 1D, 101 nodes", Om_pde.Discretize.wave_1d ~n:101 ());
      ("heat 2D, 17x17", Om_pde.Discretize.heat_2d ~nx:17 ~ny:17 ());
    ]
  in
  Printf.printf "%-32s %6s %6s %10s %18s %18s\n" "PDE model" "ODEs" "SCCs"
    "jac nnz" "SPARC w=7 speedup" "ideal w=8 speedup";
  List.iter
    (fun (name, m) ->
      let r = P.compile m in
      let jg = Om_codegen.Jacobian_gen.generate m in
      let sp_sparc =
        R.speedup ~machine:Machine.sparccenter_2000 ~nworkers:7 r
      in
      let sp_ideal = R.speedup ~machine:(Machine.ideal 16) ~nworkers:8 r in
      Printf.printf "%-32s %6d %6d %10d %18.2f %18.2f\n" name
        (Fm.dim r.model) r.analysis.comps.count
        (Om_codegen.Jacobian_gen.nonzero_count jg)
        sp_sparc sp_ideal)
    cases;
  Printf.printf
    "\nPaper §6: \"We have also started to extend the domain of equation\n\
     systems for which code can be generated to partial differential\n\
     equations, where fluid dynamics applications are common.\"  The\n\
     method-of-lines systems flow through the unchanged pipeline; their\n\
     per-node tasks are light, so equation-level speedup needs low\n\
     latency (ideal column) — consistent with §4's granularity finding.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)

(* The before/after pairs tracked in BENCH_micro.json: logical name,
   baseline benchmark (the seed's engine, or the simpler alternative a
   kept code path must beat), current benchmark.  Entries whose two
   sides coincide are single-engine trajectory points. *)
let micro_pairs =
  [
    ("vm-eval", "objectmath/vm-roller-eq", "objectmath/vm-roller-eq");
    ( "bearing-rhs",
      "objectmath/bearing-rhs-bytecode",
      "objectmath/bearing-rhs-bytecode" );
    ("cse", "objectmath/cse-servo", "objectmath/cse-servo");
    (* The symbolic Jacobian of [omc simulate]: deriving it alone, and
       building it from scratch as a fresh system's first [sjac] does
       (RHS compile, derive, lower, peephole, one evaluation). *)
    ( "bearing-jacobian-derive",
      "objectmath/bearing-jacobian-derive",
      "objectmath/bearing-jacobian-derive" );
    ( "bearing-jacobian-build",
      "objectmath/bearing-jacobian-build",
      "objectmath/bearing-jacobian-build" );
    (* The finite guard's overhead on a full RHS evaluation: the "after"
       side scans the derivative vector after the round (EXPERIMENTS.md
       targets < 2%). *)
    ( "guard-bearing",
      "objectmath/bearing-rhs-bytecode",
      "objectmath/bearing-rhs-guarded" );
    ( "guard-powerplant",
      "objectmath/powerplant-rhs-bytecode",
      "objectmath/powerplant-rhs-guarded" );
    (* What keeps the second program form: the 71 per-task programs
       run one after the other (what Par_exec splits across domains)
       against the sequential program every sequential path runs. *)
    ( "bearing-rhs-rounds",
      "objectmath/bearing-rhs-rounds",
      "objectmath/bearing-rhs-bytecode" );
    (* What keeps Vm_batch: 64 perturbed bearing states through the
       scalar VM one at a time, against one batched call at width 64. *)
    ( "ensemble-w64",
      "objectmath/bearing-rhs-scalar-x64",
      "objectmath/bearing-brhs-w64" );
    (* What keeps the sparse Newton path: fd Jacobian plus LU of the
       Newton matrix on 401-state heat, dense against colored/sparse. *)
    ( "newton-heat-401",
      "objectmath/newton-heat-401-dense",
      "objectmath/newton-heat-401-sparse" );
  ]

let write_micro_json path rows =
  (* rows : (name * ns_per_run) list.  Hand-rolled JSON keeps the bench
     binary dependency-free. *)
  let buf = Buffer.create 2048 in
  let num ns = Printf.sprintf "%.6g" ns in
  Buffer.add_string buf "{\n  \"schema\": \"objectmath-bench-micro/1\",\n";
  Buffer.add_string buf "  \"benchmarks\": {\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    %S: { \"ns_per_run\": %s, \"ops_per_sec\": %s }%s\n" name
           (num ns)
           (num (1e9 /. ns))
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  },\n  \"pairs\": {\n";
  let pairs =
    List.filter_map
      (fun (label, before, after) ->
        match (List.assoc_opt before rows, List.assoc_opt after rows) with
        | Some b, Some a -> Some (label, before, after, 1e9 /. b, 1e9 /. a)
        | _ -> None)
      micro_pairs
  in
  List.iteri
    (fun i (label, before, after, b_ops, a_ops) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    %S: { \"before\": %S, \"after\": %S,\n\
           \      \"before_ops_per_sec\": %s, \"after_ops_per_sec\": %s, \
            \"speedup\": %s }%s\n"
           label before after (num b_ops) (num a_ops)
           (num (a_ops /. b_ops))
           (if i = List.length pairs - 1 then "" else ",")))
    pairs;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc

let micro () =
  section "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let r = Lazy.force bearing in
  let heavy_eq = snd (List.nth r.model.equations 8) in
  let state_names = Fm.state_names r.model in
  let names = Array.append state_names [| "t" |] in
  let env = Array.make (Array.length names) 0.01 in
  let tbl =
    Om_expr.Eval.env_of_list
      (Array.to_list (Array.map (fun n -> (n, 0.01)) names))
  in
  let vm_prog =
    Om_expr.Vm.compile_stmts ~out_size:1 (Om_expr.Layout.of_names names)
      [ (heavy_eq, Om_expr.Vm.To_out 0) ]
  in
  let vm_out = [| 0. |] in
  let y0 = Fm.initial_values r.model in
  let ydot = Array.make (Fm.dim r.model) 0. in
  let lu_mat =
    Array.init 20 (fun i ->
        Array.init 20 (fun j -> if i = j then 21. else 1. /. float_of_int (1 + i + j)))
  in
  let bearing_guard =
    Om_guard.Finite_guard.create ~names:state_names ~dim:(Fm.dim r.model)
  in
  let pp = Lazy.force plant in
  let pp_y0 = Fm.initial_values pp.model in
  let pp_ydot = Array.make (Fm.dim pp.model) 0. in
  let plant_guard =
    Om_guard.Finite_guard.create
      ~names:(Fm.state_names pp.model)
      ~dim:(Fm.dim pp.model)
  in
  let targets =
    List.map (fun (s, e) -> (s, e)) (Lazy.force servo).model.equations
  in
  let jac_rows = Array.of_list (List.map snd r.model.equations) in
  let jac_vals =
    Array.make
      (Om_ode.Sparse.nnz
         (Om_ode.Odesys.pattern_of_equations r.model.equations))
      0.
  in
  (* Relative offsets of up to 1e-3, as in the e2e ensemble workload:
     large enough that lanes split at the bearing's conditionals. *)
  let width = 64 in
  let lanes =
    Array.init width (fun m ->
        let rng = Random.State.make [| m |] in
        Array.map
          (fun v -> v *. (1. +. (1e-3 *. (Random.State.float rng 2. -. 1.))))
          y0)
  in
  let brhs =
    Om_codegen.Batch_backend.brhs
      (Om_codegen.Batch_backend.create r.compiled ~width)
  in
  let times = Array.make width 0. in
  let by =
    Array.init (Fm.dim r.model) (fun i -> Array.map (fun l -> l.(i)) lanes)
  in
  let bydot = Array.make_matrix (Fm.dim r.model) width 0. in
  let heat = Om_pde.Discretize.heat_1d ~n:403 () in
  let heat_sys =
    Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false heat.equations
  in
  let heat_y = Fm.initial_values heat in
  let heat_plan =
    match Om_ode.Jacobian.plan ~jac_mode:Om_ode.Odesys.Sparse heat_sys with
    | Om_ode.Jacobian.Sparse_plan _ as p -> p
    | Om_ode.Jacobian.Dense_plan ->
        failwith "micro: sparse plan expected for heat"
  in
  let alpha = 1.5 and beta = 1e-4 in
  let tests =
    Test.make_grouped ~name:"objectmath"
      [
        Test.make ~name:"diff-roller-eq"
          (Staged.stage (fun () -> Om_expr.Deriv.diff "W[1].R" heavy_eq));
        Test.make ~name:"bearing-jacobian-derive"
          (Staged.stage (fun () ->
               Om_expr.Deriv.jacobian state_names jac_rows));
        Test.make ~name:"bearing-jacobian-build"
          (Staged.stage (fun () ->
               let sys = Om_ode.Odesys.of_equations r.model.equations in
               Option.get sys.sjac 0. y0 jac_vals));
        Test.make ~name:"eval-roller-eq"
          (Staged.stage (fun () -> Om_expr.Eval.eval tbl heavy_eq));
        Test.make ~name:"vm-roller-eq"
          (Staged.stage (fun () -> Om_expr.Vm.exec vm_prog ~env ~out:vm_out));
        Test.make ~name:"cse-servo"
          (Staged.stage (fun () -> Om_codegen.Cse.eliminate targets));
        Test.make ~name:"tarjan-bearing"
          (Staged.stage (fun () -> Scc.tarjan r.analysis.graph));
        Test.make ~name:"lu-20x20"
          (Staged.stage (fun () -> Om_ode.Linalg.lu_factor lu_mat));
        Test.make ~name:"bearing-rhs-bytecode"
          (Staged.stage (fun () -> P.rhs_fn r 0. y0 ydot));
        Test.make ~name:"bearing-rhs-rounds"
          (Staged.stage (fun () ->
               let c = r.compiled in
               c.set_state 0. y0;
               Array.iter
                 (fun (tk : Om_codegen.Bytecode_backend.compiled_task) ->
                   tk.eval ())
                 c.tasks;
               c.run_epilogue ();
               Array.blit c.out 0 ydot 0 c.dim));
        Test.make ~name:"bearing-rhs-guarded"
          (Staged.stage (fun () ->
               P.rhs_fn r 0. y0 ydot;
               Om_guard.Finite_guard.check bearing_guard ~time:0. ydot));
        Test.make ~name:"powerplant-rhs-bytecode"
          (Staged.stage (fun () -> P.rhs_fn pp 0. pp_y0 pp_ydot));
        Test.make ~name:"powerplant-rhs-guarded"
          (Staged.stage (fun () ->
               P.rhs_fn pp 0. pp_y0 pp_ydot;
               Om_guard.Finite_guard.check plant_guard ~time:0. pp_ydot));
        Test.make ~name:"lpt-71-tasks"
          (Staged.stage (fun () -> Om_sched.Lpt.schedule r.tasks ~nprocs:7));
        Test.make ~name:"bearing-rhs-scalar-x64"
          (Staged.stage (fun () ->
               Array.iter (fun y -> P.rhs_fn r 0. y ydot) lanes));
        Test.make ~name:"bearing-brhs-w64"
          (Staged.stage (fun () ->
               brhs ~times ~y:by ~ydot:bydot ~lo:0 ~hi:width));
        Test.make ~name:"newton-heat-401-dense"
          (Staged.stage (fun () ->
               Om_ode.Jacobian.newton_factor Om_ode.Jacobian.Dense_plan
                 heat_sys 0.01 heat_y ~alpha ~beta));
        Test.make ~name:"newton-heat-401-sparse"
          (Staged.stage (fun () ->
               Om_ode.Jacobian.newton_factor heat_plan heat_sys 0.01 heat_y
                 ~alpha ~beta));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  Printf.printf "%-44s %16s %18s\n" "benchmark" "time per run" "ops/sec";
  let measured =
    List.filter_map
      (fun (name, est) ->
        match Analyze.OLS.estimates est with
        | Some [ ns ] when ns > 0. -> Some (name, ns)
        | _ -> None)
      rows
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-44s %16s %18.0f\n" name pretty (1e9 /. ns))
    measured;
  ensure_out_dir ();
  let json_path = Filename.concat out_dir "BENCH_micro.json" in
  write_micro_json json_path measured;
  Printf.printf "\nmachine-readable results written to %s\n" json_path;
  List.iter
    (fun (label, before, after) ->
      match
        (List.assoc_opt before measured, List.assoc_opt after measured)
      with
      | Some b, Some a when before <> after ->
          Printf.printf "%-14s %.2fx (%s -> %s)\n" label (b /. a)
            before after
      | _ -> ())
    micro_pairs

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig3", fig3);
    ("fig5", fig5);
    ("fig6", fig6);
    ("syslevel", syslevel);
    ("fig10", fig10);
    ("table-codegen", table_codegen);
    ("lpt-overhead", lpt_overhead);
    ("latency", latency);
    ("table-jacobian", table_jacobian);
    ("fig12", fig12);
    ("scaling", scaling);
    ("ablation-cse", ablation_cse);
    ("ablation-sched", ablation_sched);
    ("ablation-grain", ablation_grain);
    ("ablation-comm", ablation_comm);
    ("ablation-topology", ablation_topology);
    ("extension-pde", extension_pde);
    ("micro", micro);
    ("compile-curve", Compile_curve.full);
    ("compile-curve-smoke", Compile_curve.smoke);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      Printf.printf
        "ObjectMath reproduction — full benchmark suite (all experiments)\n";
      List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s; available: %s\n" name
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
