(* simulate-bearing: the paper's user path, [omc simulate] of the 2D
   bearing from source text to final state, run as a subprocess.  One op
   is one CLI run; set-up is a CLI run to t = 1e-6 (start-up, parse,
   flatten and symbolic Jacobian, almost no integration).

   Traced runs mirror the CLI in-process — [Parser.parse_model] and
   [Flatten.flatten] (what [Flatten.flatten_string] does), then
   [Odesys.of_equations] and [Lsoda.integrate] with the RHS and Jacobian
   callbacks wrapped — and check the mirror's counts equal the CLI's. *)

open Harness

let tend ctx = if ctx.smoke then 1e-3 else 1e-2

type cli = {
  child : child;
  steps : int;
  rhs : int;
  jacs : int;
  final : (string * float) list;
}

(* Run [omc simulate FILE --tend T] and parse what it prints. *)
let run_cli ctx ~file ~tend =
  let child =
    spawn [| ctx.omc; "simulate"; file; "--tend"; Printf.sprintf "%.17g" tend |]
  in
  let steps = ref (-1) and rhs = ref (-1) and jacs = ref (-1) in
  let final = ref [] and in_final = ref false in
  List.iter
    (fun line ->
      if !in_final then
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ name; v ] -> (
            match float_of_string_opt v with
            | Some f -> final := (name, f) :: !final
            | None -> ())
        | _ -> ()
      else if line = "final state:" then in_final := true
      else
        try
          Scanf.sscanf line "simulated %_s to t=%_s %d steps, %d RHS calls, %d Jacobians"
            (fun s r j -> steps := s; rhs := r; jacs := j)
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> ())
    (String.split_on_char '\n' child.output);
  { child; steps = !steps; rhs = !rhs; jacs = !jacs; final = List.rev !final }

(* The CLI's calls, in-process and traced. *)
let mirror source ~tend =
  let ast = Span.with_ "lang.parse" (fun () -> Om_lang.Parser.parse_model source) in
  let fm = Span.with_ "lang.flatten" (fun () -> Om_lang.Flatten.flatten ast) in
  let sys =
    Span.with_ "expr.of_equations" (fun () ->
        Om_ode.Odesys.of_equations fm.equations)
  in
  let wrap3 name f = fun a b c -> Span.leaf name (fun () -> f a b c) in
  let traced = { sys with f = wrap3 "expr.rhs" sys.f;
                          jac = Option.map (wrap3 "expr.jac") sys.jac } in
  traced.sjac <- Option.map (wrap3 "expr.jac") sys.sjac;
  let y0 = Om_lang.Flat_model.initial_values fm in
  ignore
    (Span.with_ "ode.integrate" (fun () ->
         Om_ode.Lsoda.integrate ~jac_mode:Om_ode.Odesys.Auto traced ~t0:0. ~y0
           ~tend));
  sys.counters

let run ctx =
  let t = tally () in
  let source = Models.bearing2d ~seed:ctx.seed ~salt:"simulate" in
  let file = Filename.concat ctx.run_dir (Printf.sprintf "simulate-%d.om" ctx.seed) in
  write_file file source;
  let tend = tend ctx in
  let cli_ok (c : cli) what =
    check t (c.child.status = Unix.WEXITED 0 && c.steps >= 0)
      "omc simulate (%s) exited cleanly" what
  in
  (* The CLI runs in a child process, so the kernels do too; the traced
     mirror runs in this one. *)
  let (), setup =
    setup ~calib:in_child (fun () -> cli_ok (run_cli ctx ~file ~tend:1e-6) "set-up")
  in
  let clis = ref [] and counters = ref None in
  let loop =
    closed_loop ctx ~calib:(if ctx.trace then in_process else in_child) (fun _ ->
        if ctx.trace then counters := Some (mirror source ~tend)
        else clis := run_cli ctx ~file ~tend :: !clis)
  in
  let setup_s = setup_s ctx setup in
  (* Oracle: the compiled Runtime's LSODA on the same source. *)
  let compiled = Om_codegen.Pipeline.compile_source source in
  let report =
    Objectmath.Runtime.execute
      ~config:{ Objectmath.Runtime.default_config with
                execution = Objectmath.Runtime.Real_domains 0 }
      ~solver:Objectmath.Runtime.Lsoda ~tend compiled
  in
  let pins = pins ctx "simulate" in
  let key = Printf.sprintf "tend=%g" tend in
  let check_cli (c : cli) =
    cli_ok c "op";
    let names = Array.of_list (List.map fst c.final) in
    check t (Array.length names = compiled.compiled.dim)
      "omc simulate printed %d of %d final states" (Array.length names)
      compiled.compiled.dim;
    if Array.length names = compiled.compiled.dim then begin
      let oracle = Models.final_by_name compiled report.trajectory names in
      List.iteri
        (fun i (n, v) ->
          let o = oracle.(i) in
          check t
            (Float.abs (v -. o) <= 1e-6 *. Float.max (Float.abs v) (Float.abs o))
            "final %s = %g, compiled LSODA gives %g" n v o)
        c.final
    end;
    near_pin t pins (key ^ ".steps") ~tol:0.05 (float_of_int c.steps);
    near_pin t pins (key ^ ".rhs_calls") ~tol:0.05 (float_of_int c.rhs);
    near_pin t pins (key ^ ".jacobians") ~tol:0.05 (float_of_int c.jacs)
  in
  if not ctx.trace then begin
    List.iter check_cli !clis;
    let metrics =
      closed_e2e ~setup_s ~loop
        ~latencies:(List.map (fun c -> c.child.wall) !clis)
        ~rss:(List.fold_left (fun m c -> Float.max m c.child.rss_mb) 0. !clis)
    in
    { tally = t; metrics }
  end
  else begin
    let counters = Option.get !counters in
    let c = run_cli ctx ~file ~tend in
    check_cli c;
    let matches =
      counters.steps = c.steps && counters.rhs_calls = c.rhs
      && counters.jac_calls = c.jacs
    in
    check t matches
      "in-process mirror counts (%d steps, %d RHS, %d Jacobians) equal the \
       CLI's (%d, %d, %d)"
      counters.steps counters.rhs_calls counters.jac_calls c.steps c.rhs c.jacs;
    let per_call_us span =
      Span.self span /. float_of_int (max 1 (Span.count span)) *. 1e6
    in
    let metrics =
      trace_metrics loop @ span_fracs ()
      @ [
          ("trace.matches_cli", if matches then 1. else 0.);
          ("expr.rhs_call_us", per_call_us "expr.rhs");
          ("expr.jac_call_us", per_call_us "expr.jac");
          ("codegen.rhs_call_us", Models.rhs_call_us compiled);
          ("ode.steps", float_of_int counters.steps);
          ("ode.rhs_calls", float_of_int counters.rhs_calls);
          ("ode.jac_calls", float_of_int counters.jac_calls);
          ("ode.rejected", float_of_int counters.rejected);
          ("ode.newton_iters", float_of_int counters.newton_iters);
          ("ode.lu_factorisations", float_of_int counters.lu_factorisations);
        ]
    in
    { tally = t; metrics }
  end
