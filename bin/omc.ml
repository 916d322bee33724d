(* omc — the ObjectMath reproduction compiler driver.

   Subcommands mirror the paper's toolchain (Figure 7): [analyze] performs
   the dependency/SCC analysis, [compile] runs the code generator and
   emits Fortran 90 / C, [simulate] integrates the model, and [bench]
   executes the generated RHS on a simulated parallel machine. *)

open Cmdliner

(* Reads to end of file, so pipes and [/dev/stdin] work too. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- shared arguments ---- *)

let builtin_models =
  [
    ("bearing2d", fun () -> Om_models.Bearing2d.source ());
    ("powerplant", fun () -> Om_models.Powerplant.source ());
    ("servo", fun () -> Om_models.Servo.source ());
    ("bearing3d", fun () -> Om_models.Bearing_scaled.source ());
  ]

let model_source file builtin =
  match (file, builtin) with
  | Some path, None -> Ok (read_file path)
  | None, Some name -> (
      match List.assoc_opt name builtin_models with
      | Some f -> Ok (f ())
      | None ->
          Error
            (Printf.sprintf "unknown builtin model %s (available: %s)" name
               (String.concat ", " (List.map fst builtin_models))))
  | Some _, Some _ -> Error "give either FILE or --model, not both"
  | None, None -> Error "a model is required: FILE or --model NAME"

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"ObjectMath model source file.")

let builtin_arg =
  Arg.(value & opt (some string) None
       & info [ "model" ] ~docv:"NAME"
           ~doc:"Use a builtin model: bearing2d, powerplant, servo, \
                 bearing3d.")

let jac_mode_arg =
  let modes =
    Om_ode.Odesys.[ ("auto", Auto); ("dense", Dense); ("sparse", Sparse) ]
  in
  Arg.(value & opt (enum modes) Om_ode.Odesys.Auto
       & info [ "jac-mode" ] ~docv:"MODE"
           ~doc:"Newton-matrix strategy for the stiff solver path: \
                 $(b,auto), $(b,dense) or $(b,sparse).  $(b,auto) takes \
                 the sparse path on large sparse systems; \
                 trajectories are bitwise-identical across modes.")

(* A finite, strictly positive float: anything else is a cmdliner usage
   error, like every other malformed flag. *)
let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0. -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* A strictly positive integer: anything else is a usage error too. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let tend_arg ?(doc = "Simulation end time.") default =
  Arg.(value & opt positive_float default & info [ "tend" ] ~docv:"T" ~doc)

let load file builtin =
  match model_source file builtin with
  | Error e ->
      Printf.eprintf "omc: %s\n" e;
      exit 2
  | Ok src -> (
      match Om_lang.Flatten.flatten_string src with
      | fm -> (src, fm)
      | exception Om_lang.Flatten.Error msg ->
          Printf.eprintf "omc: semantic error: %s\n" msg;
          exit 1
      | exception Om_lang.Parser.Error (msg, pos) ->
          Printf.eprintf "omc: syntax error at %d:%d: %s\n" pos.line pos.col
            msg;
          exit 1
      | exception Om_lang.Lexer.Error (msg, pos) ->
          Printf.eprintf "omc: lexical error at %d:%d: %s\n" pos.line pos.col
            msg;
          exit 1)

(* ---- analyze ---- *)

let analyze_cmd =
  let run file builtin dot_path =
    let _, fm = load file builtin in
    let a = Om_codegen.Pipeline.analyse fm in
    Printf.printf "model %s: %d equations, %d SCCs (%d nontrivial)\n" fm.name
      (Om_lang.Flat_model.dim fm) a.comps.count
      (List.length a.nontrivial);
    Array.iteri
      (fun k members ->
        Printf.printf "  SCC %2d (%d): %s\n" k (List.length members)
          (String.concat ", "
             (List.map (Om_graph.Digraph.label a.graph) members)))
      a.comps.members;
    let layers = Om_graph.Topo.layers a.condensed in
    Printf.printf "condensation: %d layers (critical path)\n"
      (List.length layers);
    Printf.printf "max equation-system-level speedup: %.2f\n"
      (Om_sched.Dag_sched.max_speedup a.condensed ~weights:a.scc_weights);
    Format.printf "%a" Om_codegen.Diagnostics.pp
      (Om_codegen.Diagnostics.analyse fm);
    match dot_path with
    | Some path ->
        Om_graph.Dot.save path (Om_graph.Dot.with_components a.graph a.comps);
        Printf.printf "dependency graph written to %s\n" path
    | None -> ()
  in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"PATH" ~doc:"Write a Graphviz graph.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Dependency and SCC analysis (paper fig. 3/6)")
    Term.(const run $ file_arg $ builtin_arg $ dot)

(* ---- browse ---- *)

let browse_cmd =
  let run file builtin dot_path =
    let src, _ = load file builtin in
    let ast = Om_lang.Parser.parse_model src in
    Printf.printf "inheritance hierarchy:\n%s\n"
      (Om_lang.Browser.inheritance_tree ast);
    Printf.printf "composition structure:\n%s"
      (Om_lang.Browser.composition_tree ast);
    match dot_path with
    | Some path ->
        let oc = open_out path in
        output_string oc (Om_lang.Browser.to_dot ast);
        close_out oc;
        Printf.printf "\nstructure graph written to %s\n" path
    | None -> ()
  in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"PATH" ~doc:"Write a Graphviz graph.")
  in
  Cmd.v
    (Cmd.info "browse"
       ~doc:"Show the model's class hierarchy and composition (paper fig. 5)")
    Term.(const run $ file_arg $ builtin_arg $ dot)

(* ---- flatten ---- *)

let flatten_cmd =
  let run file builtin unparse_out =
    let _, fm = load file builtin in
    Printf.printf "model %s: %d state variables\n" fm.name
      (Om_lang.Flat_model.dim fm);
    List.iter
      (fun (s, v) -> Printf.printf "  %-28s init %g\n" s v)
      fm.states;
    List.iter
      (fun (s, e) ->
        Format.printf "  der(%s) =@[<hov 2> %a@]@." s Om_expr.Expr.pp e)
      fm.equations;
    match unparse_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Om_lang.Unparse.flat_model fm);
        close_out oc;
        Printf.printf "flat model source written to %s\n" path
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "unparse" ] ~docv:"PATH"
             ~doc:"Write the flat model back as model source text.")
  in
  Cmd.v
    (Cmd.info "flatten"
       ~doc:"Flatten classes/instances into explicit first-order ODEs")
    Term.(const run $ file_arg $ builtin_arg $ out)

(* ---- compile ---- *)

let compile_cmd =
  let run file builtin out_prefix serial =
    let src, fm = load file builtin in
    let r = Om_codegen.Pipeline.compile fm in
    let stats = Om_codegen.Stats.collect ~source:src r in
    Format.printf "%a@." Om_codegen.Stats.pp stats;
    let state_names = Om_lang.Flat_model.state_names fm in
    let initial = Om_lang.Flat_model.initial_values fm in
    let mode_f, mode_c, suffix =
      if serial then (Om_codegen.Fortran.Serial, Om_codegen.C_backend.Serial, "serial")
      else (Om_codegen.Fortran.Parallel, Om_codegen.C_backend.Parallel, "parallel")
    in
    match out_prefix with
    | None -> ()
    | Some prefix ->
        let f =
          Om_codegen.Fortran.generate ~mode:mode_f r.plan ~state_names
            ~initial ~model_name:fm.name
        in
        let c =
          Om_codegen.C_backend.generate ~mode:mode_c r.plan ~state_names
            ~initial ~model_name:fm.name
        in
        let write path text =
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc text);
          Printf.printf "wrote %s\n" path
        in
        write (Printf.sprintf "%s_%s.f90" prefix suffix) f.code;
        write (Printf.sprintf "%s_%s.c" prefix suffix) c.code;
        let jac =
          Om_codegen.Jacobian_gen.fortran
            (Om_codegen.Jacobian_gen.generate fm)
            ~state_names ~model_name:fm.name
        in
        write (Printf.sprintf "%s_jacobian.f90" prefix) jac.code;
        let mma = Om_codegen.Mathematica_backend.generate fm in
        write (Printf.sprintf "%s.m" prefix) mma.code
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"PREFIX"
             ~doc:"Write generated Fortran 90 and C code to PREFIX_*.f90/.c.")
  in
  let serial =
    Arg.(value & flag
         & info [ "serial" ] ~doc:"Generate serial code (global CSE).")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Run the code generator and report statistics")
    Term.(const run $ file_arg $ builtin_arg $ out $ serial)

(* ---- simulate ---- *)

(* Start values from a text file, one "name value" pair per line — the
   paper's §3.2 requirement that "the start values for the simulation can
   be changed without re-compilation of the application". *)
let read_start_values path fm =
  let y0 = Om_lang.Flat_model.initial_values fm in
  let names = Om_lang.Flat_model.state_names fm in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             match String.split_on_char ' ' line |> List.filter (( <> ) "") with
             | [ name; value ] -> (
                 match Array.find_index (( = ) name) names with
                 | Some i -> y0.(i) <- float_of_string value
                 | None ->
                     Printf.eprintf "omc: unknown state %s in %s\n" name path;
                     exit 1)
             | _ ->
                 Printf.eprintf "omc: malformed line in %s: %s\n" path line;
                 exit 1
         done
       with End_of_file -> ());
      y0)

(* The Jacobian the stiff path uses, when it takes the sparse route: every
   system of a compiled model carries its symbolic program
   (Pipeline.system). *)
let print_jacobian ?(indent = "") ~dim (mode, nnz) =
  match nnz with
  | None -> ()
  | Some nnz ->
      Printf.printf
        "%sjacobian: %s, %d structural nonzeros of %d x %d, symbolic (one \
         sjac program run per Jacobian, no RHS evals)\n"
        indent mode nnz dim dim

let simulate_cmd =
  let run file builtin tend solver hstep csv plot init_file jac_mode =
    let _, fm = load file builtin in
    let m = Om_codegen.Pipeline.model_of_flat fm in
    let sys =
      Om_codegen.Pipeline.system m (Om_codegen.Pipeline.sequential_fn m)
    in
    let y0 =
      match init_file with
      | Some path -> read_start_values path fm
      | None -> Om_lang.Flat_model.initial_values fm
    in
    let trajectory =
      try
        match solver with
        | "lsoda" ->
            (Om_ode.Lsoda.integrate ~jac_mode sys ~t0:0. ~y0 ~tend)
              .trajectory
        | "rkf45" -> Om_ode.Rk.rkf45 sys ~t0:0. ~y0 ~tend
        | "rk4" ->
            let h = match hstep with Some h -> h | None -> tend /. 1000. in
            Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 sys ~t0:0. ~y0 ~tend ~h
        | other ->
            Printf.eprintf "omc: unknown solver %s (lsoda, rkf45, rk4)\n"
              other;
            exit 2
      with Om_guard.Om_error.Error e ->
        (* Solver failures (blown retry or step budgets) are distinct
           from model errors: exit 3, not 1. *)
        Printf.eprintf "omc: solver failure: %s\n"
          (Om_guard.Om_error.to_string e);
        exit 3
    in
    Printf.printf
      "simulated %s to t=%g: %d steps, %d RHS calls, %d Jacobians\n" fm.name
      tend sys.counters.steps sys.counters.rhs_calls sys.counters.jac_calls;
    print_jacobian ~dim:sys.dim (Om_ode.Jacobian.mode_stats ~jac_mode sys);
    if csv then begin
      Printf.printf "t,%s\n"
        (String.concat "," (Array.to_list sys.names));
      Array.iteri
        (fun k t ->
          Printf.printf "%g,%s\n" t
            (String.concat ","
               (Array.to_list
                  (Array.map (Printf.sprintf "%g") trajectory.states.(k)))))
        trajectory.ts
    end
    else begin
      let yf = Om_ode.Odesys.final_state trajectory in
      Printf.printf "final state:\n";
      Array.iteri
        (fun i n -> Printf.printf "  %-24s % .6e\n" n yf.(i))
        sys.names
    end;
    match plot with
    | None -> ()
    | Some path ->
        (* Plot the first few state variables over time. *)
        let n_plot = min 6 sys.dim in
        let all =
          List.init n_plot (fun i ->
              Om_viz.Plot.of_arrays sys.names.(i) trajectory.ts
                (Array.map (fun y -> y.(i)) trajectory.states))
        in
        Om_viz.Plot.save_svg ~path
          ~title:(Printf.sprintf "%s trajectory" fm.name)
          ~x_label:"t" all;
        Printf.printf "trajectory plot written to %s\n" path
  in
  let tend = tend_arg 1.0 in
  let solver =
    Arg.(value & opt string "lsoda"
         & info [ "solver" ] ~docv:"NAME" ~doc:"lsoda, rkf45 or rk4.")
  in
  let hstep =
    Arg.(value & opt (some positive_float) None
         & info [ "step" ] ~docv:"H" ~doc:"Fixed step size for rk4.")
  in
  let csv =
    Arg.(value & flag
         & info [ "csv" ] ~doc:"Print the whole trajectory as CSV.")
  in
  let plot =
    Arg.(value & opt (some string) None
         & info [ "plot" ] ~docv:"PATH"
             ~doc:"Write an SVG plot of the first state variables.")
  in
  let init_file =
    Arg.(value & opt (some file) None
         & info [ "init" ] ~docv:"FILE"
             ~doc:"Read start values from FILE (one 'state value' per \
                   line) instead of the model's init expressions.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Integrate the model's ODE system")
    Term.(const run $ file_arg $ builtin_arg $ tend $ solver $ hstep $ csv
          $ plot $ init_file $ jac_mode_arg)

(* ---- bench ---- *)

let bench_cmd =
  let run file builtin machine workers tend needed_only semidynamic fanout
      domains chaos_nan chaos_inf chaos_stall stall_micros chaos_spawn
      barrier_deadline no_guard jac_mode =
    let _, fm = load file builtin in
    let r = Om_codegen.Pipeline.compile fm in
    let m =
      match machine with
      | "sparc" -> Om_machine.Machine.sparccenter_2000
      | "parsytec" -> Om_machine.Machine.parsytec_gcpp
      | "mpp" -> Om_machine.Machine.t3d_class_mpp
      | other ->
          Printf.eprintf "omc: unknown machine %s (sparc, parsytec, mpp)\n"
            other;
          exit 2
    in
    let faults =
      let fs =
        (match chaos_nan with
        | Some (task, round) ->
            [ Om_guard.Fault_plan.Nan_task { task; round } ]
        | None -> [])
        @ (match chaos_inf with
          | Some (task, round) ->
              [ Om_guard.Fault_plan.Inf_task { task; round } ]
          | None -> [])
        @ (match chaos_stall with
          | Some (worker, round) ->
              [
                Om_guard.Fault_plan.Delay_worker
                  { worker; round; micros = stall_micros };
              ]
          | None -> [])
        @
        match chaos_spawn with
        | Some worker -> [ Om_guard.Fault_plan.Fail_spawn { worker } ]
        | None -> []
      in
      if fs = [] then None else Some (Om_guard.Fault_plan.make fs)
    in
    let config =
      {
        Objectmath.Runtime.default_config with
        Objectmath.Runtime.machine = m;
        nworkers = workers;
        strategy =
          (if needed_only then Om_machine.Supervisor.Needed_only
           else Om_machine.Supervisor.Broadcast_state);
        scheduling =
          (match semidynamic with
          | Some period -> Objectmath.Runtime.Semidynamic period
          | None -> Objectmath.Runtime.Static);
        topology =
          (match fanout with
          | Some f -> Objectmath.Runtime.Tree f
          | None -> Objectmath.Runtime.Flat);
        execution =
          (match domains with
          | Some n -> Objectmath.Runtime.Real_domains n
          | None -> Objectmath.Runtime.Simulated);
        guard = not no_guard;
        faults;
        barrier_deadline;
        jac_mode;
      }
    in
    let rep =
      try Objectmath.Runtime.execute ~config ~tend r
      with Om_guard.Om_error.Error e ->
        Printf.eprintf "omc: solver failure: %s\n"
          (Om_guard.Om_error.to_string e);
        exit 3
    in
    (match domains with
     | Some n ->
         Printf.printf
           "%s on %d real domains%s:\n  %d RHS calls in %.4f wall-clock s -> \
            %.1f calls/s\n"
           fm.name n
           (match semidynamic with
           | Some p -> Printf.sprintf " (semidynamic, period %d)" p
           | None -> "")
           rep.rhs_calls rep.sim_seconds rep.rhs_calls_per_sec;
         Printf.printf
           "  reschedules: %d (%.6f s), barrier wait: %.4f s, worker \
            utilization: %.2f\n"
           rep.reschedules rep.sched_overhead_seconds
           rep.supervisor_comm_seconds rep.worker_utilization;
         Array.iteri
           (fun w c ->
             Printf.printf "  worker %d: compute %.4f s, wait %.4f s\n" w c
               rep.worker_wait_seconds.(w))
           rep.worker_compute_seconds
     | None ->
         Printf.printf
           "%s on %s with %d workers:\n  %d RHS calls in %.4f simulated s -> \
            %.1f calls/s\n  supervisor messaging: %.4f s\n"
           fm.name m.name workers rep.rhs_calls rep.sim_seconds
           rep.rhs_calls_per_sec rep.supervisor_comm_seconds);
    print_jacobian ~indent:"  " ~dim:r.compiled.dim (rep.jac_mode, rep.jac_nnz);
    if rep.faults_injected > 0 || rep.retries > 0 || rep.degradations <> []
    then begin
      Printf.printf "  chaos: %d fault(s) injected, %d solver retry(ies)\n"
        rep.faults_injected rep.retries;
      List.iter
        (fun d ->
          Printf.printf "  degradation: %s\n"
            (Fmt.str "%a" Om_guard.Om_error.pp_degradation d))
        rep.degradations
    end;
    let sp =
      Objectmath.Runtime.speedup ~machine:m ~nworkers:(max 1 workers) r
    in
    Printf.printf "  static speedup vs local evaluation: %.2fx\n" sp
  in
  let machine =
    Arg.(value & opt string "sparc"
         & info [ "machine" ] ~docv:"NAME" ~doc:"sparc or parsytec.")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N" ~doc:"Worker processors.")
  in
  let tend = tend_arg ~doc:"Simulated model time." 1e-3 in
  let needed_only =
    Arg.(value & flag
         & info [ "needed-only" ]
             ~doc:"Ship only the state entries each worker reads.")
  in
  let semidynamic =
    Arg.(value & opt (some int) None
         & info [ "semidynamic" ] ~docv:"PERIOD"
             ~doc:"Semi-dynamic LPT rescheduling every PERIOD iterations.")
  in
  let fanout =
    Arg.(value & opt (some int) None
         & info [ "tree" ] ~docv:"FANOUT"
             ~doc:"Tree-structured scatter/gather with the given fanout.")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Execute RHS rounds on N real OCaml domains (wall-clock \
                   measurement) instead of the simulated machine.")
  in
  let chaos_nan =
    Arg.(value & opt (some (pair ~sep:':' int int)) None
         & info [ "chaos-nan" ] ~docv:"TASK:ROUND"
             ~doc:"Fault injection: overwrite TASK's output with NaN at \
                   round ROUND.  The finite guard catches it and the \
                   solver retries.")
  in
  let chaos_inf =
    Arg.(value & opt (some (pair ~sep:':' int int)) None
         & info [ "chaos-inf" ] ~docv:"TASK:ROUND"
             ~doc:"Like $(b,--chaos-nan) with +infinity.")
  in
  let chaos_stall =
    Arg.(value & opt (some (pair ~sep:':' int int)) None
         & info [ "chaos-stall-worker" ] ~docv:"WORKER:ROUND"
             ~doc:"Fault injection: busy-delay WORKER at round ROUND \
                   (see $(b,--chaos-stall-micros)).  With \
                   $(b,--barrier-deadline) this forces a recorded \
                   degradation.  Real domains only.")
  in
  let stall_micros =
    Arg.(value & opt int 3000
         & info [ "chaos-stall-micros" ] ~docv:"US"
             ~doc:"Injected stall length in microseconds.")
  in
  let chaos_spawn =
    Arg.(value & opt (some int) None
         & info [ "chaos-fail-spawn" ] ~docv:"WORKER"
             ~doc:"Fault injection: fail the spawn of WORKER, degrading \
                   the run to fewer domains.  Real domains only.")
  in
  let barrier_deadline =
    Arg.(value & opt float 0.
         & info [ "barrier-deadline" ] ~docv:"SECONDS"
             ~doc:"Arm barrier stall detection: a round outliving the \
                   deadline drops the stalled worker (LPT reassignment). \
                   0 disables.  Real domains only.")
  in
  let no_guard =
    Arg.(value & flag
         & info [ "no-guard" ]
             ~doc:"Disable the post-round finite guard over the \
                   derivative vector.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Execute the generated RHS on a simulated parallel machine")
    Term.(const run $ file_arg $ builtin_arg $ machine $ workers $ tend
          $ needed_only $ semidynamic $ fanout $ domains $ chaos_nan
          $ chaos_inf $ chaos_stall $ stall_micros $ chaos_spawn
          $ barrier_deadline $ no_guard $ jac_mode_arg)

(* ---- sweep / ensemble ---- *)

(* Shared by [sweep] and [ensemble]: resolve the metric state name and
   fail with the model-error exit code when it does not exist. *)
let metric_of fm metric =
  let names = Om_lang.Flat_model.state_names fm in
  let name = match metric with Some m -> m | None -> names.(0) in
  if not (Array.exists (( = ) name) names) then begin
    Printf.eprintf "omc: unknown metric state %s (states: %s)\n" name
      (String.concat ", " (Array.to_list names));
    exit 1
  end;
  name

let sweep_cmd =
  let run file builtin cls param values tend metric domains =
    if values = [] then begin
      Printf.eprintf "omc: --values requires at least one value\n";
      exit 2
    end;
    let src, fm = load file builtin in
    let metric_name = metric_of fm metric in
    let points =
      try
        Objectmath.Sweep.run ~domains ~source:src ~cls ~param ~values ~tend
          ~states:[| metric_name |] ()
      with
      | Om_lang.Override.Unknown_target what ->
          Printf.eprintf "omc: unknown sweep target: %s\n" what;
          exit 1
      | Om_lang.Override.Shadowed what ->
          Printf.eprintf "omc: sweep target reaches no instance: %s\n" what;
          exit 1
      | Om_guard.Om_error.Error e ->
          Printf.eprintf "omc: solver failure: %s\n"
            (Om_guard.Om_error.to_string e);
          exit 3
    in
    Printf.printf
      "sweep %s.%s over %d values to t=%g (engine: compile-once ensemble)\n"
      cls param (List.length points) tend;
    Printf.printf "%14s %16s %8s %10s\n" "value"
      ("final " ^ metric_name)
      "steps" "rhs-calls";
    List.iter
      (fun (p : Objectmath.Sweep.point) ->
        Printf.printf "%14g % .9e %8d %10d\n" p.value p.finals.(0) p.steps
          p.rhs_calls)
      points
  in
  let cls =
    Arg.(required & opt (some string) None
         & info [ "class" ] ~docv:"CLASS"
             ~doc:"Class declaring the swept parameter.")
  in
  let param =
    Arg.(required & opt (some string) None
         & info [ "param" ] ~docv:"NAME" ~doc:"Parameter to sweep.")
  in
  let values =
    Arg.(value & opt (list float) []
         & info [ "values" ] ~docv:"V1,V2,..."
             ~doc:"Comma-separated parameter values, one ensemble member \
                   each.")
  in
  let tend = tend_arg 1.0 in
  let metric =
    Arg.(value & opt (some string) None
         & info [ "metric" ] ~docv:"STATE"
             ~doc:"State whose final value is reported (default: the \
                   first state).")
  in
  let domains =
    Arg.(value & opt positive_int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Split batched RHS rounds across N OCaml domains.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep a parameter: compile once, integrate all values as one \
             ensemble, each value stepping on its own")
    Term.(const run $ file_arg $ builtin_arg $ cls $ param $ values $ tend
          $ metric $ domains)

let ensemble_cmd =
  let parse_dist s =
    let fail () =
      Printf.eprintf
        "omc: bad distribution %s (want uniform:LO,HI or normal:MU,SIGMA)\n"
        s;
      exit 2
    in
    match String.index_opt s ':' with
    | None -> fail ()
    | Some i -> (
        let kind = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match
          (kind, String.split_on_char ',' rest |> List.map float_of_string)
        with
        | "uniform", [ a; b ] -> Objectmath.Sweep.Uniform (a, b)
        | "normal", [ mu; sigma ] -> Objectmath.Sweep.Normal (mu, sigma)
        | _ -> fail ()
        | exception _ -> fail ())
  in
  let run file builtin cls param dist samples seed tend metric domains
      show_samples =
    let src, fm = load file builtin in
    let metric_name = metric_of fm metric in
    let dist = parse_dist dist in
    let rep =
      try
        Objectmath.Sweep.monte_carlo ~source:src
          ~specs:[ (cls, param, dist) ]
          ~samples ~seed ~tend ~domains ~state:metric_name ()
      with
      | Om_lang.Override.Unknown_target what ->
          Printf.eprintf "omc: unknown ensemble target: %s\n" what;
          exit 1
      | Om_lang.Override.Shadowed what ->
          Printf.eprintf "omc: ensemble target reaches no instance: %s\n" what;
          exit 1
      | Om_guard.Om_error.Error e ->
          Printf.eprintf "omc: solver failure: %s\n"
            (Om_guard.Om_error.to_string e);
          exit 3
    in
    Printf.printf
      "monte carlo %s.%s: %d samples, seed %d, t=%g (engine: compile-once \
       ensemble)\n"
      cls param samples seed tend;
    Printf.printf "final %s: mean % .9e, stddev %.9e\n" metric_name
      rep.Objectmath.Sweep.mean rep.Objectmath.Sweep.stddev;
    if show_samples then begin
      Printf.printf "%14s %16s\n" param ("final " ^ metric_name);
      List.iter
        (fun (s : Objectmath.Sweep.mc_sample) ->
          Printf.printf "%14.6f % .9e\n" s.draws.(0) s.mc_final)
        rep.Objectmath.Sweep.samples
    end
  in
  let cls =
    Arg.(required & opt (some string) None
         & info [ "class" ] ~docv:"CLASS"
             ~doc:"Class declaring the varied parameter.")
  in
  let param =
    Arg.(required & opt (some string) None
         & info [ "param" ] ~docv:"NAME" ~doc:"Parameter to vary.")
  in
  let dist =
    Arg.(value & opt string "uniform:0.5,2.0"
         & info [ "dist" ] ~docv:"SPEC"
             ~doc:"Sampling distribution: uniform:LO,HI or \
                   normal:MU,SIGMA.")
  in
  let samples =
    Arg.(value & opt positive_int 32
         & info [ "samples" ] ~docv:"N" ~doc:"Ensemble members to draw.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S"
             ~doc:"Deterministic draw seed: the same seed reproduces the \
                   same report.")
  in
  let tend = tend_arg 1.0 in
  let metric =
    Arg.(value & opt (some string) None
         & info [ "metric" ] ~docv:"STATE"
             ~doc:"State whose final value is summarised (default: the \
                   first state).")
  in
  let domains =
    Arg.(value & opt positive_int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Split batched RHS rounds across N OCaml domains.")
  in
  let show_samples =
    Arg.(value & flag
         & info [ "show-samples" ] ~doc:"Print every drawn sample.")
  in
  Cmd.v
    (Cmd.info "ensemble"
       ~doc:"Seeded Monte Carlo over a parameter distribution, integrated \
             as one ensemble, each sample stepping on its own")
    Term.(const run $ file_arg $ builtin_arg $ cls $ param $ dist $ samples
          $ seed $ tend $ metric $ domains $ show_samples)

(* ---- serve ---- *)

let serve_cmd =
  let run socket accept queue executors cache_capacity no_timings journal_path
      retries retry_backoff quota_queued quota_running deadline_margin
      result_cache =
    (* A client that hangs up mid-stream must surface as the [Sys_error]
       [write_record] swallows, not as a SIGPIPE that kills the server. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let resolve name =
      Option.map (fun f -> f ()) (List.assoc_opt name builtin_models)
    in
    let config =
      {
        Om_serve.Server.queue_capacity = queue;
        executors;
        cache_capacity;
        timings = not no_timings;
        resolve;
        max_queued_per_tenant = quota_queued;
        max_running_per_tenant = quota_running;
        default_retries = retries;
        retry_backoff_s = retry_backoff;
        deadline_margin;
        result_cache_capacity = result_cache;
      }
    in
    let write_record oc record =
      (* Best-effort: a client that hangs up mid-stream must not kill
         the server loop. *)
      try
        output_string oc (Om_serve.Json.to_string record);
        output_char oc '\n';
        flush oc
      with Sys_error _ -> ()
    in
    (* Durability: replay the journal before serving (re-enqueueing the
       previous process's unfinished jobs exactly once), then append to
       the same file.  A corrupt journal is a hard startup error — the
       operator must not silently lose accepted work. *)
    let start_server ~emit =
      match journal_path with
      | None -> Om_serve.Server.create ~config ~emit ()
      | Some path -> (
          match Om_serve.Journal.replay path with
          | Error msg ->
              Printf.eprintf "omc: %s\n" msg;
              exit 2
          | Ok replay ->
              let journal = Om_serve.Journal.open_append path in
              let server =
                Om_serve.Server.create ~config ~journal ~emit ()
              in
              (* Announce the recovery before re-enqueueing: executors
                 start on a recovered job at once, and its status must
                 not overtake this record.  Replay deduplicates ids and
                 recovery bypasses admission, so a fresh server
                 re-enqueues every pending job. *)
              let pending = List.length replay.Om_serve.Journal.pending in
              if pending > 0 then
                emit
                  (Om_serve.Json.Obj
                     [
                       ("type", Om_serve.Json.Str "recovered");
                       ("jobs", Om_serve.Json.Int pending);
                       ( "torn_tail",
                         Om_serve.Json.Bool replay.Om_serve.Journal.torn_tail
                       );
                     ]);
              ignore (Om_serve.Server.recover server replay);
              server)
    in
    let serve_stdin () =
      let server = start_server ~emit:(write_record stdout) in
      (try
         let rec loop () =
           ignore (Om_serve.Server.handle_line server (input_line stdin));
           loop ()
         in
         loop ()
       with End_of_file | Sys_error _ -> ());
      ignore (Om_serve.Server.drain server)
    in
    (* One connection of the socket mode: its own writer mutex keeps the
       connection's NDJSON unmangled while executor domains emit into it
       concurrently; jobs run on the shared server, so connections
       submitting the same model hit one compiled artifact and their
       jobs execute simultaneously. *)
    let serve_client server client =
      let ic = Unix.in_channel_of_descr client in
      let oc = Unix.out_channel_of_descr client in
      let wmutex = Mutex.create () in
      (* Completion tracking for this connection's jobs: [pending] holds
         queued ids awaiting a terminal status; [early] holds terminal
         statuses that raced ahead of the reader registering the id. *)
      let pmutex = Mutex.create () in
      let done_cv = Condition.create () in
      let pending : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let early : (string, string) Hashtbl.t = Hashtbl.create 8 in
      let jobs = ref 0 and ok = ref 0 and failed = ref 0 in
      let rejected = ref 0 in
      let count_terminal status =
        if status = "ok" then incr ok else incr failed
      in
      let field record name =
        Option.bind (Om_serve.Json.member record name) Om_serve.Json.to_str
      in
      let sink record =
        Mutex.lock wmutex;
        write_record oc record;
        Mutex.unlock wmutex;
        match (field record "type", field record "status", field record "job")
        with
        | Some "status", Some status, _
          when String.length status >= 8 && String.sub status 0 8 = "rejected"
          ->
            incr rejected
        | Some "status", Some "invalid", _ -> ()
        | Some "status", Some status, Some job ->
            Mutex.lock pmutex;
            if Hashtbl.mem pending job then begin
              Hashtbl.remove pending job;
              count_terminal status;
              Condition.signal done_cv
            end
            else Hashtbl.replace early job status;
            Mutex.unlock pmutex
        | _ -> ()
      in
      (try
         let rec loop () =
           (match Om_serve.Server.handle_line ~sink server (input_line ic) with
           | `Queued id ->
               Mutex.lock pmutex;
               incr jobs;
               (match Hashtbl.find_opt early id with
               | Some status ->
                   Hashtbl.remove early id;
                   count_terminal status
               | None -> Hashtbl.add pending id ());
               Mutex.unlock pmutex
           | `Replied | `Quiet -> ());
           loop ()
         in
         loop ()
       with End_of_file | Sys_error _ -> ());
      (* The client closed its input; its queued jobs may still be
         running on the shared executors.  Wait for each to reach a
         terminal status before summarising and hanging up. *)
      Mutex.lock pmutex;
      while Hashtbl.length pending > 0 do
        Condition.wait done_cv pmutex
      done;
      Mutex.unlock pmutex;
      write_record oc
        (Om_serve.Json.Obj
           [
             ("type", Om_serve.Json.Str "summary");
             ("jobs", Om_serve.Json.Int !jobs);
             ("ok", Om_serve.Json.Int !ok);
             ("failed", Om_serve.Json.Int !failed);
             ("rejected", Om_serve.Json.Int !rejected);
             ("cache", Om_serve.Server.cache_summary server);
           ]);
      try close_out oc with Sys_error _ -> ()
    in
    match socket with
    | None -> serve_stdin ()
    | Some path ->
        (* One server shared by every connection: shared compiled-model
           cache, shared queue, shared executor domains.  Connections
           are accepted concurrently, each handled by its own domain;
           records route to the submitting connection via per-job
           sinks. *)
        let server = start_server ~emit:(write_record stdout) in
        if Sys.file_exists path then Sys.remove path;
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock (max 8 accept);
        let conns = ref [] in
        let rec accept_loop remaining =
          if remaining <> 0 then begin
            let client, _ = Unix.accept sock in
            conns := Domain.spawn (fun () -> serve_client server client) :: !conns;
            accept_loop (if remaining > 0 then remaining - 1 else remaining)
          end
        in
        (* [--accept 0] means serve forever: a negative count never
           reaches the loop's 0 stop condition. *)
        accept_loop (if accept = 0 then -1 else accept);
        List.iter Domain.join !conns;
        ignore (Om_serve.Server.drain server);
        Unix.close sock;
        if Sys.file_exists path then Sys.remove path
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket instead of stdin; \
                   connections are served concurrently as NDJSON sessions \
                   against one shared server (cache, queue and executors).")
  in
  let accept =
    Arg.(value & opt int 0
         & info [ "accept" ] ~docv:"N"
             ~doc:"With $(b,--socket), exit after N connections, which are \
                   accepted and served simultaneously (0 = serve forever).")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Submission queue capacity; a full queue rejects jobs \
                   with a $(i,rejected_full) status record.")
  in
  let executors =
    Arg.(value & opt int 1
         & info [ "executors" ] ~docv:"N"
             ~doc:"Worker domains running jobs (1 keeps status records in \
                   priority order).")
  in
  let cache =
    Arg.(value & opt int 32
         & info [ "cache" ] ~docv:"N"
             ~doc:"Compiled-model cache capacity (0 disables caching).")
  in
  let no_timings =
    Arg.(value & flag
         & info [ "no-timings" ]
             ~doc:"Omit wall-clock fields from status records (makes the \
                   output deterministic for tests).")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"PATH"
             ~doc:"Write-ahead job journal: every accepted job and state \
                   transition is appended to PATH (fsynced before the job \
                   runs).  On startup the journal is replayed and jobs the \
                   previous process accepted but never finished are \
                   re-enqueued exactly once.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Default job-level retry budget: transiently failed jobs \
                   (worker faults, spawn failures, exhausted solver \
                   ladders) are re-enqueued with exponential backoff up to \
                   N times.  Jobs may override with their own \
                   $(i,retries) field.")
  in
  let retry_backoff =
    Arg.(value & opt float 0.05
         & info [ "retry-backoff" ] ~docv:"SECONDS"
             ~doc:"Base backoff before the first retry; attempt k waits \
                   2^(k-1) times this.")
  in
  let quota_queued =
    Arg.(value & opt int 0
         & info [ "quota-queued" ] ~docv:"N"
             ~doc:"Per-tenant bound on queued jobs; over-quota submissions \
                   are shed with $(i,rejected_quota) (0 = no quota).")
  in
  let quota_running =
    Arg.(value & opt int 0
         & info [ "quota-running" ] ~docv:"N"
             ~doc:"Per-tenant bound on concurrently executing jobs; a \
                   saturated tenant's jobs wait while other tenants' jobs \
                   overtake them (0 = no quota).")
  in
  let deadline_margin =
    Arg.(value & opt float 0.
         & info [ "deadline-margin" ] ~docv:"FACTOR"
             ~doc:"Shed jobs at admission with $(i,rejected_deadline) when \
                   the model's smoothed run time times FACTOR exceeds the \
                   job's deadline (0 = never shed on deadline).")
  in
  let result_cache =
    Arg.(value & opt int 0
         & info [ "result-cache" ] ~docv:"N"
             ~doc:"Cache up to N finished trajectories: identical \
                   deterministic jobs (same model, solver and end time, no \
                   chaos, no domains) replay the stored result bit for bit \
                   (0 = off).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running multi-tenant simulation service: NDJSON jobs on \
             stdin or a Unix socket, priority scheduling, per-job \
             deadlines/cancellation, per-tenant quotas, crash-recoverable \
             job journal, retry/backoff, compiled-model and result caches, \
             streamed results")
    Term.(const run $ socket $ accept $ queue $ executors $ cache
          $ no_timings $ journal $ retries $ retry_backoff $ quota_queued
          $ quota_running $ deadline_margin $ result_cache)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let run cases seed out_dir verbose chaos =
    let log = if verbose then prerr_endline else ignore in
    let summary = Om_fuzz.Runner.run ~out_dir ~cases ~seed ~chaos ~log () in
    Format.printf "%a@." Om_fuzz.Runner.pp_summary summary;
    if summary.failures <> [] then begin
      List.iter
        (fun (fl : Om_fuzz.Runner.failure) ->
          Printf.printf "case %d: %d violation(s); counterexample in %s\n"
            fl.index
            (List.length fl.violations)
            out_dir)
        summary.failures;
      exit 1
    end
  in
  let cases =
    Arg.(value & opt int 100
         & info [ "cases" ] ~docv:"N" ~doc:"Number of random models.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S"
             ~doc:"Base seed; case $(i,i) uses the pair (S, i).")
  in
  let out =
    Arg.(value & opt string "bench_out/fuzz"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for shrunk counterexample dumps.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ] ~doc:"Log each discarded/failing case.")
  in
  let chaos =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Additionally inject one seeded fault (NaN/Inf task \
                   output or a worker stall) per case into a 2-domain run \
                   and require the recovered trajectory to stay bitwise \
                   identical to the fault-free reference.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random models checked across all \
             evaluator and scheduling strategies")
    Term.(const run $ cases $ seed $ out $ verbose $ chaos)

let () =
  let doc = "ObjectMath reproduction compiler (PPoPP 1995)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "omc" ~doc)
          [
            analyze_cmd; browse_cmd; flatten_cmd; compile_cmd; simulate_cmd;
            sweep_cmd; ensemble_cmd; bench_cmd; fuzz_cmd; serve_cmd;
          ]))
