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
    (Om_codegen.Jacobian_gen.to_odesys fm)
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
   baseline benchmark (the engine the seed shipped with), current
   benchmark.  Entries whose two sides coincide are single-engine
   trajectory points. *)
let micro_pairs =
  [
    ("vm-eval", "objectmath/vm-roller-eq", "objectmath/vm-roller-eq");
    ( "bearing-rhs",
      "objectmath/bearing-rhs-bytecode",
      "objectmath/bearing-rhs-bytecode" );
    ("simplify", "objectmath/simplify-roller-eq", "objectmath/simplify-roller-eq");
    ("cse", "objectmath/cse-servo", "objectmath/cse-servo");
    (* The finite guard's overhead on a full RHS evaluation: the "after"
       side scans the derivative vector after the round (EXPERIMENTS.md
       targets < 2%). *)
    ( "guard-bearing",
      "objectmath/bearing-rhs-bytecode",
      "objectmath/bearing-rhs-guarded" );
    ( "guard-powerplant",
      "objectmath/powerplant-rhs-bytecode",
      "objectmath/powerplant-rhs-guarded" );
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
  let vm_prog = Om_expr.Vm.compile names heavy_eq in
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
  let tests =
    Test.make_grouped ~name:"objectmath"
      [
        Test.make ~name:"simplify-roller-eq"
          (Staged.stage (fun () -> Om_expr.Simplify.simplify heavy_eq));
        Test.make ~name:"diff-roller-eq"
          (Staged.stage (fun () -> Om_expr.Deriv.diff "W[1].R" heavy_eq));
        Test.make ~name:"bearing-jacobian-derive"
          (Staged.stage (fun () ->
               Om_expr.Deriv.jacobian state_names jac_rows));
        Test.make ~name:"eval-roller-eq"
          (Staged.stage (fun () -> Om_expr.Eval.eval tbl heavy_eq));
        Test.make ~name:"vm-roller-eq"
          (Staged.stage (fun () -> Om_expr.Vm.run vm_prog env));
        Test.make ~name:"cse-servo"
          (Staged.stage (fun () -> Om_codegen.Cse.eliminate targets));
        Test.make ~name:"tarjan-bearing"
          (Staged.stage (fun () -> Scc.tarjan r.analysis.graph));
        Test.make ~name:"lu-20x20"
          (Staged.stage (fun () -> Om_ode.Linalg.lu_factor lu_mat));
        Test.make ~name:"bearing-rhs-bytecode"
          (Staged.stage (fun () -> P.rhs_fn r 0. y0 ydot));
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
(* Real multicore execution: measured #RHS-calls/s on OCaml domains,    *)
(* next to the simulated Figure 12 curve for the same schedules.        *)

let multicore () =
  section "Multicore — measured #RHS-calls/s on real OCaml domains";
  ensure_out_dir ();
  let ncores = Domain.recommended_domain_count () in
  let workers =
    List.sort_uniq compare (1 :: 2 :: 4 :: (if ncores > 4 then [ min ncores 8 ] else []))
  in
  Printf.printf "host cores: %d; sweeping workers %s\n\n" ncores
    (String.concat ", " (List.map string_of_int workers));
  (* Each model is swept twice: static LPT and the measured semi-dynamic
     rescheduler (§3.2.3), so BENCH_parallel.json carries the
     static-vs-semidynamic comparison on real hardware. *)
  let series =
    List.concat_map
      (fun (name, r) ->
        let r = Lazy.force r in
        List.map
          (fun semidynamic ->
            let s =
              Om_parallel.Scaling.measure ~rounds:1500 ?semidynamic ~name
                ~workers r
            in
            Format.printf "%a@." Om_parallel.Scaling.pp_series s;
            s)
          [ None; Some 25 ])
      [ ("bearing2d", bearing); ("powerplant", plant) ]
  in
  let path = Filename.concat out_dir "BENCH_parallel.json" in
  Om_parallel.Scaling.write_json ~path ~ncores series;
  Printf.printf "machine-readable results written to %s\n" path;
  (* The simulated curve the measured one sits next to (Figure 12). *)
  let r = Lazy.force bearing in
  Printf.printf
    "\nsimulated SPARCCenter speedup for the same LPT schedules:\n";
  List.iter
    (fun w ->
      if w >= 1 then
        Printf.printf "  %d workers: %.2fx\n" w
          (R.speedup ~machine:Machine.sparccenter_2000 ~nworkers:w r))
    workers;
  Printf.printf
    "\nOn shared memory there is no 4 us per-message cost, so the real\n\
     curve rises faster than the simulated SPARC curve — until the host\n\
     runs out of cores (ncores=%d here), where it flattens; trajectories\n\
     stay byte-identical at every worker count and across semi-dynamic\n\
     reschedules (the `identical' column).\n"
    ncores

(* ------------------------------------------------------------------ *)
(* Ensemble engine: trajectories/sec, scalar loop vs batched VM.       *)

let write_ensemble_json path ~model ~dim ~nsteps ~h rows =
  (* rows : (width, scalar_tps, batched_tps) list; hand-rolled JSON as
     in [write_micro_json]. *)
  let buf = Buffer.create 1024 in
  let num v = Printf.sprintf "%.6g" v in
  Buffer.add_string buf "{\n  \"schema\": \"objectmath-bench-ensemble/1\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"model\": %S,\n  \"dim\": %d,\n  \"steps\": %d,\n  \"h\": %s,\n"
       model dim nsteps (num h));
  Buffer.add_string buf "  \"widths\": [\n";
  List.iteri
    (fun i (w, s_tps, b_tps) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"width\": %d, \"scalar_traj_per_sec\": %s, \
            \"batched_traj_per_sec\": %s, \"speedup\": %s }%s\n"
           w (num s_tps) (num b_tps)
           (num (b_tps /. s_tps))
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc

(* Scalar-loop baseline: per-member fixed RK4 over the scalar register
   VM ([Pipeline.rhs_fn]), no trajectory recording — the same arithmetic
   the batched engine performs, minus the batching. *)
let scalar_rk4 rhs ~dim ~y0 ~t0 ~tend ~h =
  let y = Array.copy y0 in
  let k1 = Array.make dim 0. and k2 = Array.make dim 0. in
  let k3 = Array.make dim 0. and k4 = Array.make dim 0. in
  let ytmp = Array.make dim 0. in
  let t = ref t0 in
  while !t < tend -. 1e-12 do
    let h' = Float.min h (tend -. !t) in
    rhs !t y k1;
    for i = 0 to dim - 1 do ytmp.(i) <- y.(i) +. (h' /. 2. *. k1.(i)) done;
    rhs (!t +. (h' /. 2.)) ytmp k2;
    for i = 0 to dim - 1 do ytmp.(i) <- y.(i) +. (h' /. 2. *. k2.(i)) done;
    rhs (!t +. (h' /. 2.)) ytmp k3;
    for i = 0 to dim - 1 do ytmp.(i) <- y.(i) +. (h' *. k3.(i)) done;
    rhs (!t +. h') ytmp k4;
    for i = 0 to dim - 1 do
      y.(i) <-
        y.(i) +. (h' /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i)))
    done;
    t := !t +. h'
  done;
  y

let ensemble_run ~widths ~nsteps ~min_traj () =
  section "Ensemble — trajectories/sec, scalar loop vs batched VM (bearing)";
  ensure_out_dir ();
  let r = Lazy.force bearing in
  let dim = Fm.dim r.model in
  let y0 = Fm.initial_values r.model in
  let h = 2e-5 in
  let tend = float_of_int nsteps *. h in
  let rhs = P.rhs_fn r in
  (* Deterministic per-member relative perturbations of up to 1e-3, as
     in the e2e ensemble workload: large enough that lanes split at the
     bearing's conditionals, so the batched column pays for divergence. *)
  let member_y0 m =
    let rng = Random.State.make [| m |] in
    Array.map
      (fun v -> v *. (1. +. (1e-3 *. (Random.State.float rng 2. -. 1.))))
      y0
  in
  let now = Om_parallel.Monotonic.now in
  Printf.printf "bearing RHS, dim %d, %d RK4 steps per trajectory, h=%g\n\n"
    dim nsteps h;
  Printf.printf "%-8s %10s %22s %22s %10s\n" "width" "reps"
    "scalar [traj/s]" "batched [traj/s]" "speedup";
  let rows =
    List.map
      (fun w ->
        let reps = max 1 (min_traj / w) in
        let y0s = Array.init w member_y0 in
        (* Scalar loop: one member at a time through the scalar VM. *)
        let t0 = now () in
        for _ = 1 to reps do
          for m = 0 to w - 1 do
            ignore (scalar_rk4 rhs ~dim ~y0:y0s.(m) ~t0:0. ~tend ~h)
          done
        done;
        let scalar_s = now () -. t0 in
        (* Batched VM: the whole batch in lockstep. *)
        let bb = Om_codegen.Batch_backend.create r.compiled ~width:w in
        let brhs = Om_codegen.Batch_backend.brhs bb in
        let t0 = now () in
        for _ = 1 to reps do
          let ens = Om_ode.Ensemble.create ~dim ~f:brhs y0s in
          ignore (Om_ode.Ensemble.rk4 ens ~t0:0. ~tend ~h)
        done;
        let batched_s = now () -. t0 in
        let traj = float_of_int (w * reps) in
        let s_tps = traj /. scalar_s and b_tps = traj /. batched_s in
        Printf.printf "%-8d %10d %22.1f %22.1f %9.2fx\n" w reps s_tps b_tps
          (b_tps /. s_tps);
        (w, s_tps, b_tps))
      widths
  in
  let path = Filename.concat out_dir "BENCH_ensemble.json" in
  write_ensemble_json path ~model:"bearing2d" ~dim ~nsteps ~h rows;
  Printf.printf "\nmachine-readable results written to %s\n" path;
  Printf.printf
    "\nBoth columns run the same register programs; the batched column\n\
     amortises instruction decode over the batch (one decoded op drives\n\
     the whole lane range), which is where the speedup comes from.\n"

let ensemble () =
  ensemble_run ~widths:[ 1; 8; 64; 512; 4096 ] ~nsteps:25 ~min_traj:512 ()

(* Cheap CI variant: small widths, few steps, still writes the JSON. *)
let ensemble_smoke () =
  ensemble_run ~widths:[ 1; 8; 64 ] ~nsteps:5 ~min_traj:64 ()

(* ------------------------------------------------------------------ *)
(* Serve: sustained jobs/sec, compile-cache amortisation, tail latency. *)

let percentile sorted p =
  (* nearest-rank on an ascending array; p in [0,100] *)
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    sorted.(min (n - 1)
              (int_of_float (Float.round (float_of_int (n - 1) *. p /. 100.))))

let write_serve_json path ~nmodels ~repeats ~tend ~steps rows =
  (* rows : (label, cache_capacity, executors, jobs, jobs_per_sec, wall_s,
     compiles, hits, p50_ms, p95_ms, p99_ms) list *)
  let buf = Buffer.create 1024 in
  let num v = Printf.sprintf "%.6g" v in
  Buffer.add_string buf "{\n  \"schema\": \"objectmath-bench-serve/3\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"models\": %d,\n  \"repeats\": %d,\n  \"tend\": %s,\n  \
        \"steps_per_job\": %d,\n"
       nmodels repeats (num tend) steps);
  Buffer.add_string buf "  \"series\": [\n";
  List.iteri
    (fun i (label, cap, execs, jobs, jps, wall, compiles, hits, p50, p95, p99)
       ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"label\": %S, \"cache_capacity\": %d, \"executors\": %d, \
            \"jobs\": %d, \"jobs_per_sec\": %s, \"wall_s\": %s, \
            \"compiles\": %d, \"cache_hits\": %d, \"p50_ms\": %s, \
            \"p95_ms\": %s, \"p99_ms\": %s }%s\n"
           label cap execs jobs (num jps) (num wall) compiles hits (num p50)
           (num p95) (num p99)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  let jps label =
    List.find_map
      (fun (l, _, _, _, jps, _, _, _, _, _, _) ->
        if l = label then Some jps else None)
      rows
  in
  let ratio name a b =
    match (jps a, jps b) with
    | Some va, Some vb when vb <> 0. ->
        Printf.sprintf "  \"%s\": %s" name (num (va /. vb))
    | _ -> Printf.sprintf "  \"%s\": null" name
  in
  Buffer.add_string buf (ratio "warm_over_cold" "warm" "cold");
  Buffer.add_string buf ",\n";
  (* Same-model concurrency: >1 means jobs on one hot artifact really
     overlapped (meaningless ≈1 on a single hardware core, where the
     series is still recorded for cross-machine comparison). *)
  Buffer.add_string buf
    (ratio "same_model_x2_over_x1" "same-model-x2" "same-model-x1");
  Buffer.add_string buf ",\n";
  (* Durability cost: a warm same-model burst with the write-ahead
     journal on, as a fraction of the identical journal-free burst.
     Group-commit fsync keeps this near 1.0 (< 1.05 is the acceptance
     bar). *)
  Buffer.add_string buf (ratio "journal_overhead" "journal-off" "journal-on");
  Buffer.add_string buf "\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc

let serve_run ~nmodels ~repeats () =
  section "Serve — jobs/sec, compile-cache amortisation, tail latency";
  ensure_out_dir ();
  let tend = 0.01 and steps = 20 in
  let solver = Om_serve.Job.Rk4 (Some (tend /. float_of_int steps)) in
  (* Fuzz-generated model mix, prefiltered: each candidate must compile
     and integrate finitely over the short job horizon.  The short
     horizon keeps the run itself cheap, so a cache hit (skipping
     flatten/typecheck/codegen) dominates the per-job cost. *)
  let models =
    let rec gather i acc =
      if List.length acc >= nmodels then List.rev acc
      else begin
        let rng = Random.State.make [| 2026; i |] in
        let src = Om_fuzz.Gen.source rng in
        match
          let r = Om_codegen.Pipeline.compile_source src in
          Objectmath.Runtime.execute
            ~solver:(Rk4 (tend /. float_of_int steps))
            ~tend r
        with
        | rep
          when Array.for_all Float.is_finite
                 (Om_ode.Odesys.final_state rep.trajectory) ->
            gather (i + 1) (src :: acc)
        | _ -> gather (i + 1) acc
        | exception _ -> gather (i + 1) acc
      end
    in
    gather 0 []
  in
  let jobs =
    List.concat_map
      (fun rep ->
        List.mapi
          (fun m source ->
            {
              Om_serve.Job.default with
              Om_serve.Job.id = Printf.sprintf "r%d-m%d" rep m;
              tenant = Printf.sprintf "tenant-%d" (m mod 3);
              source;
              solver;
              tend;
            })
          models)
      (List.init repeats Fun.id)
  in
  Printf.printf
    "%d fuzz models x %d repeats = %d jobs per series (%d rk4 steps each)\n\n"
    (List.length models) repeats (List.length jobs) steps;
  let now = Om_parallel.Monotonic.now in
  let journal_path = Filename.concat out_dir "bench_serve.journal" in
  let run_series ?(executors = 1) ?(journal = false) ?(recover_first = false)
      label cache_capacity jobs =
    let njobs = List.length jobs in
    let latencies = ref [] in
    let mu = Mutex.create () in
    let emit record =
      match
        ( Om_serve.Json.member record "type",
          Om_serve.Json.member record "total_s" )
      with
      | Some (Om_serve.Json.Str "status"), Some v -> (
          match Om_serve.Json.to_float v with
          | Some s ->
              Mutex.lock mu;
              latencies := s :: !latencies;
              Mutex.unlock mu
          | None -> ())
      | _ -> ()
    in
    let config =
      {
        Om_serve.Server.default_config with
        Om_serve.Server.queue_capacity = njobs + 1;
        executors;
        cache_capacity;
        timings = true;
      }
    in
    let t0 = now () in
    let server =
      if journal then begin
        if (not recover_first) && Sys.file_exists journal_path then
          Sys.remove journal_path;
        (* recovery series: replay an existing journal and re-enqueue the
           crashed jobs; the measured wall covers replay + re-execution *)
        let replay =
          match Om_serve.Journal.replay journal_path with
          | Ok r -> r
          | Error msg -> failwith msg
        in
        let j = Om_serve.Journal.open_append journal_path in
        let server = Om_serve.Server.create ~config ~journal:j ~emit () in
        ignore (Om_serve.Server.recover server replay);
        server
      end
      else Om_serve.Server.create ~config ~emit ()
    in
    List.iter (fun j -> ignore (Om_serve.Server.submit server j)) jobs;
    ignore (Om_serve.Server.drain server);
    let wall = now () -. t0 in
    (* the recovery series submits nothing itself: its jobs all come
       from the journal, so count terminal statuses instead *)
    let njobs = max njobs (List.length !latencies) in
    let cs = Om_serve.Model_cache.stats (Om_serve.Server.cache server) in
    let sorted = Array.of_list !latencies in
    Array.sort compare sorted;
    let pct p = percentile sorted p *. 1e3 in
    let jps = float_of_int njobs /. wall in
    Printf.printf
      "%-14s cache=%-3d x%d %8.1f jobs/s  wall %6.3fs  compiles %3d  hits \
       %3d  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms\n"
      label cache_capacity executors jps wall
      cs.Om_serve.Model_cache.compiles cs.Om_serve.Model_cache.hits (pct 50.)
      (pct 95.) (pct 99.);
    ( label, cache_capacity, executors, njobs, jps, wall,
      cs.Om_serve.Model_cache.compiles, cs.Om_serve.Model_cache.hits,
      pct 50., pct 95., pct 99. )
  in
  (* Cold: caching disabled, every job pays the full pipeline.  Warm:
     every distinct source compiles once; repeats are cache hits. *)
  let cold = run_series "cold" 0 jobs in
  let warm = run_series "warm" 64 jobs in
  (* Same-model concurrency: a burst of identical jobs against one hot
     artifact, scaled across executor counts.  One compile serves the
     whole burst; each executor integrates its own scratch clone, so the
     x2/x1 throughput ratio measures true execution overlap (≈1 on a
     single hardware core, →2 with two real cores). *)
  let hot_steps = 400 in
  let hot_source = List.hd models in
  let hot_jobs tag =
    List.init (8 * repeats) (fun i ->
        {
          Om_serve.Job.default with
          Om_serve.Job.id = Printf.sprintf "hot%s-%d" tag i;
          tenant = "hot";
          source = hot_source;
          solver = Om_serve.Job.Rk4 (Some (tend /. float_of_int hot_steps));
          tend;
        })
  in
  let sm1 = run_series ~executors:1 "same-model-x1" 64 (hot_jobs "x1") in
  let sm2 = run_series ~executors:2 "same-model-x2" 64 (hot_jobs "x2") in
  (* Durability: the warm series again with the write-ahead journal on —
     every accept fsynced (group commit) before its job runs. *)
  let rename tag =
    List.map (fun j ->
        { j with Om_serve.Job.id = tag ^ "-" ^ j.Om_serve.Job.id })
  in
  (* Durability: group-commit fsync overhead, measured on a warm burst
     long enough for batching to amortise.  Per-job fsync would show up
     here as a multi-x slowdown; group commit (executors block on their
     accept's fsync only, terminal records ride later batches) keeps
     the journal-on/journal-off gap within a few percent. *)
  let journal_burst tag =
    List.init (32 * repeats) (fun i ->
        {
          Om_serve.Job.default with
          Om_serve.Job.id = Printf.sprintf "%s-%d" tag i;
          tenant = "durable";
          source = hot_source;
          solver = Om_serve.Job.Rk4 (Some (tend /. float_of_int hot_steps));
          tend;
        })
  in
  (* Paired interleaved rounds for the overhead ratio: on a loaded
     single-core machine a ~100ms series varies ±20% run to run, which
     would drown the few percent the journal actually costs (and any
     scheme that picks each side's run independently compares a lucky
     run against an unlucky one).  Each round runs journal-off then
     journal-on back to back, sharing ambient load, and the reported
     rows aggregate all rounds — total jobs over total wall — so
     transient stalls fall out of both sides alike. *)
  let aggregate rows =
    let label, cap, ex, _, _, _, _, _, _, _, _ = List.hd rows in
    let sum f = List.fold_left (fun a r -> a +. f r) 0. rows in
    let sumi f = List.fold_left (fun a r -> a + f r) 0 rows in
    let njobs = sumi (fun (_, _, _, n, _, _, _, _, _, _, _) -> n) in
    let wall = sum (fun (_, _, _, _, _, w, _, _, _, _, _) -> w) in
    let med f =
      let a = Array.of_list (List.map f rows) in
      Array.sort compare a;
      a.(Array.length a / 2)
    in
    ( label, cap, ex, njobs, float_of_int njobs /. wall, wall,
      sumi (fun (_, _, _, _, _, _, c, _, _, _, _) -> c),
      sumi (fun (_, _, _, _, _, _, _, h, _, _, _) -> h),
      med (fun (_, _, _, _, _, _, _, _, p, _, _) -> p),
      med (fun (_, _, _, _, _, _, _, _, _, p, _) -> p),
      med (fun (_, _, _, _, _, _, _, _, _, _, p) -> p) )
  in
  let pairs =
    List.init 3 (fun _ ->
        let off = run_series "journal-off" 64 (journal_burst "jb") in
        let on_ =
          run_series ~journal:true "journal-on" 64 (journal_burst "jo")
        in
        (off, on_))
  in
  let jbase = aggregate (List.map fst pairs) in
  let wj = aggregate (List.map snd pairs) in
  (* Recovery: journal a burst of accepts with no terminal records (a
     crashed server), then measure replay + re-execution to drain. *)
  let crashed = rename "crash" jobs in
  if Sys.file_exists journal_path then Sys.remove journal_path;
  let j = Om_serve.Journal.open_append journal_path in
  List.iter (fun s -> ignore (Om_serve.Journal.record_accept j s)) crashed;
  Om_serve.Journal.close j;
  let recov =
    run_series ~journal:true ~recover_first:true "recovery" 64 []
  in
  if Sys.file_exists journal_path then Sys.remove journal_path;
  let rows = [ cold; warm; sm1; sm2; jbase; wj; recov ] in
  let path = Filename.concat out_dir "BENCH_serve.json" in
  write_serve_json path ~nmodels:(List.length models) ~repeats ~tend ~steps
    rows;
  let series_jps (_, _, _, _, jps, _, _, _, _, _, _) = jps in
  Printf.printf
    "\nwarm/cold throughput: %.2fx (compile amortised across %d repeats)\n"
    (series_jps warm /. series_jps cold)
    repeats;
  Printf.printf
    "same-model x2/x1 throughput: %.2fx (scratch-clone executor overlap)\n"
    (series_jps sm2 /. series_jps sm1);
  Printf.printf
    "journal overhead: %.3fx journal-off throughput (group-commit fsync; \
     < 1.05 is the acceptance bar)\n"
    (series_jps jbase /. series_jps wj);
  Printf.printf "recovery drain: %.1f jobs/s from a cold journal replay\n"
    (series_jps recov);
  Printf.printf "machine-readable results written to %s\n" path

let serve_bench () = serve_run ~nmodels:12 ~repeats:6 ()

(* Cheap CI variant: fewer models and repeats, still writes the JSON. *)
let serve_smoke () = serve_run ~nmodels:4 ~repeats:3 ()

(* ------------------------------------------------------------------ *)
(* Sparse Jacobians: colored compressed columns + sparse LU vs the     *)
(* dense Newton pipeline, over method-of-lines heat-equation sizes.    *)

type jac_row = {
  jr_states : int;
  jr_nnz : int;
  jr_colors : int;
  jr_fd_evals : int;  (** measured RHS evaluations of one fd Jacobian *)
  jr_sparse : float * float * float;  (** jac, assemble+factor, solve [s] *)
  jr_dense : (float * float * float) option;  (** None above [dense_cap] *)
}

let write_jacobian_json path rows =
  let buf = Buffer.create 2048 in
  let num v = Printf.sprintf "%.6g" v in
  Buffer.add_string buf "{\n  \"schema\": \"objectmath-bench-jacobian/1\",\n";
  Buffer.add_string buf
    "  \"model\": \"heat_1d\",\n  \"alpha\": 1.5,\n  \"beta\": 1e-4,\n";
  Buffer.add_string buf "  \"sizes\": [\n";
  List.iteri
    (fun i r ->
      let sj, sf, ss = r.jr_sparse in
      let sparse_step = sj +. sf +. ss in
      let dense_fields =
        match r.jr_dense with
        | None ->
            "\"dense_jac_s\": null, \"dense_factor_s\": null, \
             \"dense_solve_s\": null, \"dense_step_s\": null, \
             \"newton_speedup\": null"
        | Some (dj, df, ds) ->
            let dense_step = dj +. df +. ds in
            Printf.sprintf
              "\"dense_jac_s\": %s, \"dense_factor_s\": %s, \
               \"dense_solve_s\": %s, \"dense_step_s\": %s, \
               \"newton_speedup\": %s"
              (num dj) (num df) (num ds) (num dense_step)
              (num (dense_step /. sparse_step))
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"states\": %d, \"nnz\": %d, \"colors\": %d, \
            \"fd_evals\": %d, \"sparse_jac_s\": %s, \"sparse_factor_s\": \
            %s, \"sparse_solve_s\": %s, \"sparse_step_s\": %s, %s }%s\n"
           r.jr_states r.jr_nnz r.jr_colors r.jr_fd_evals (num sj) (num sf)
           (num ss) (num sparse_step) dense_fields
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc

let jacobian_run ~sizes ~dense_cap () =
  section
    "Jacobian — colored sparse columns + sparse LU vs the dense Newton \
     pipeline (1D heat equation)";
  ensure_out_dir ();
  let now = Om_parallel.Monotonic.now in
  let time_it f =
    let t0 = now () in
    let r = f () in
    (now () -. t0, r)
  in
  let alpha = 1.5 and beta = 1e-4 in
  Printf.printf "%-9s %9s %7s %8s | %11s %11s %11s | %11s %9s\n" "states"
    "nnz" "colors" "fd evals" "sparse jac" "sp factor" "sp step"
    "dense step" "speedup";
  let rows =
    List.map
      (fun states ->
        let m = Om_pde.Discretize.heat_1d ~n:(states + 2) () in
        let sys =
          Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false
            m.equations
        in
        let y = Fm.initial_values m in
        let t = 0.01 in
        let ctx =
          match Om_ode.Jacobian.plan ~jac_mode:Om_ode.Odesys.Sparse sys with
          | Om_ode.Jacobian.Sparse_plan ctx -> ctx
          | _ -> failwith "jacobian bench: sparse plan expected"
        in
        let nnz = Om_ode.Sparse.nnz ctx.spat in
        let colors = ctx.coloring.ncolors in
        (* Count the RHS evaluations of one colored fd Jacobian: must be
           exactly [colors + 1] (one per color plus the base point). *)
        let calls0 = sys.counters.rhs_calls in
        Om_ode.Jacobian.sparse_eval_into sys ctx t y;
        let fd_evals = sys.counters.rhs_calls - calls0 in
        let sparse_jac_s, () =
          time_it (fun () -> Om_ode.Jacobian.sparse_eval_into sys ctx t y)
        in
        let sparse_factor_s, lu =
          time_it (fun () ->
              Om_ode.Sparse.newton_assemble ctx.newton ~jac:ctx.sj ~alpha
                ~beta;
              Om_ode.Sparse.lu_factor
                (Om_ode.Sparse.newton_matrix ctx.newton))
        in
        let b = Array.init states (fun i -> Float.sin (float_of_int i)) in
        let sparse_solve_s, _ =
          time_it (fun () -> Om_ode.Sparse.lu_solve lu b)
        in
        let dense =
          if states > dense_cap then None
          else begin
            let jm = Om_ode.Linalg.make states states 0. in
            let dense_jac_s, () =
              time_it (fun () -> Om_ode.Jacobian.eval_into sys t y jm)
            in
            let dense_factor_s, dlu =
              time_it (fun () ->
                  (* Build the Newton matrix in place to halve the peak
                     footprint at the big sizes. *)
                  for i = 0 to states - 1 do
                    let row = jm.(i) in
                    for k = 0 to states - 1 do
                      row.(k) <-
                        (if i = k then alpha else 0.) -. (beta *. row.(k))
                    done
                  done;
                  Om_ode.Linalg.lu_factor jm)
            in
            let dense_solve_s, _ =
              time_it (fun () -> Om_ode.Linalg.lu_solve dlu b)
            in
            Some (dense_jac_s, dense_factor_s, dense_solve_s)
          end
        in
        let sj, sf, ss = (sparse_jac_s, sparse_factor_s, sparse_solve_s) in
        let sparse_step = sj +. sf +. ss in
        (match dense with
        | Some (dj, df, ds) ->
            let dense_step = dj +. df +. ds in
            Printf.printf
              "%-9d %9d %7d %8d | %11.2e %11.2e %11.2e | %11.2e %8.1fx\n"
              states nnz colors fd_evals sj sf sparse_step dense_step
              (dense_step /. sparse_step)
        | None ->
            Printf.printf
              "%-9d %9d %7d %8d | %11.2e %11.2e %11.2e | %11s %9s\n" states
              nnz colors fd_evals sj sf sparse_step "-" "-");
        {
          jr_states = states;
          jr_nnz = nnz;
          jr_colors = colors;
          jr_fd_evals = fd_evals;
          jr_sparse = (sj, sf, ss);
          jr_dense = dense;
        })
      sizes
  in
  let path = Filename.concat out_dir "BENCH_jacobian.json" in
  write_jacobian_json path rows;
  Printf.printf "\nmachine-readable results written to %s\n" path;
  Printf.printf
    "\nThe compressed fd Jacobian costs one RHS evaluation per color plus\n\
     the base point (tridiagonal heat: 3 colors at every size), and the\n\
     sparse LU factors the tridiagonal Newton matrix with no fill — both\n\
     flat in the stencil width instead of the state count, which is where\n\
     the dense O(n) fd evaluations and O(n^3) factorisation go.\n";
  rows

let jacobian () =
  ignore
    (jacobian_run
       ~sizes:[ 1000; 3162; 10000; 31623; 100000 ]
       ~dense_cap:10000 ())

(* Cheap CI variant: one modest size, dense comparison included, with
   the structural assertions CI relies on. *)
let jacobian_smoke () =
  let rows = jacobian_run ~sizes:[ 401 ] ~dense_cap:401 () in
  List.iter
    (fun r ->
      if r.jr_colors >= r.jr_states then
        failwith
          (Printf.sprintf "jacobian-smoke: %d colors on %d states"
             r.jr_colors r.jr_states);
      if r.jr_fd_evals <> r.jr_colors + 1 then
        failwith
          (Printf.sprintf "jacobian-smoke: %d fd evals for %d colors"
             r.jr_fd_evals r.jr_colors))
    rows;
  Printf.printf "jacobian-smoke: colors < states and fd evals = colors + 1\n"

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
    ("multicore", multicore);
    ("ensemble", ensemble);
    ("ensemble-smoke", ensemble_smoke);
    ("serve", serve_bench);
    ("serve-smoke", serve_smoke);
    ("jacobian", jacobian);
    ("jacobian-smoke", jacobian_smoke);
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
