(* rhs-par2: the paper's Figure 12 mechanism — LPT-scheduled RHS tasks
   run as supervisor/worker rounds on two real domains — driving
   fixed-step RK4 on the 2D bearing.  One op is one [Runtime.execute] of
   8000 rounds (RHS calls); set-up is the compile.

   Check: every op's final state is bitwise equal to sequential execution
   ([Real_domains 0]) of the same compiled model. *)

open Harness

let h = 1e-5
let tend ctx = if ctx.smoke then 4e-4 else 2e-2

let execute ~domains ~tend compiled =
  Objectmath.Runtime.execute
    ~config:{ Objectmath.Runtime.default_config with
              execution = Objectmath.Runtime.Real_domains domains }
    ~solver:(Objectmath.Runtime.Rk4 h) ~tend compiled

let run ctx =
  let t = tally () in
  let source = Models.bearing2d ~seed:ctx.seed ~salt:"rhs-par2" in
  let tend = tend ctx in
  let compiled, setup = setup (fun () -> Om_codegen.Pipeline.compile_source source) in
  let stage_coverage = if ctx.trace then Models.setup_stage_coverage source else 0. in
  let reports = ref [] in
  let loop =
    closed_loop ctx (fun _ ->
        let r =
          Span.with_ "parallel.execute" (fun () -> execute ~domains:2 ~tend compiled)
        in
        reports := (r, !Span.enabled) :: !reports)
  in
  let setup_s = setup_s ctx setup in
  let reference = execute ~domains:0 ~tend compiled in
  let ref_final = Om_ode.Odesys.final_state reference.trajectory in
  List.iter
    (fun ((r : Objectmath.Runtime.report), _) ->
      check t
        (bits_equal (Om_ode.Odesys.final_state r.trajectory) ref_final
        && r.rhs_calls = reference.rhs_calls)
        "2-domain final state bitwise equal to sequential (%d vs %d RHS calls)"
        r.rhs_calls reference.rhs_calls)
    !reports;
  if not ctx.trace then
    {
      tally = t;
      metrics =
        closed_e2e ~setup_s ~loop ~latencies:loop.untraced ~rss:loop.rss_mb;
    }
  else
    let traced = List.filter_map (fun (r, tr) -> if tr then Some r else None) !reports in
    let n = float_of_int (max 1 (List.length traced)) in
    let sum f = Stat.sum (List.map f traced) in
    let rounds = sum (fun (r : Objectmath.Runtime.report) -> float_of_int r.rhs_calls) in
    let integrate = sum (fun r -> r.sim_seconds) in
    let barrier = sum (fun r -> r.supervisor_comm_seconds) in
    let codegen = Models.codegen_metrics compiled in
    let round_us = integrate /. rounds *. 1e6 in
    {
      tally = t;
      metrics =
        trace_metrics loop @ span_fracs () @ codegen
        @ [
            ("compile.stage_coverage", stage_coverage);
            ("ode.steps", sum (fun r -> float_of_int r.solver_steps) /. n);
            ("ode.rhs_calls", rounds /. n);
            ("parallel.barrier_frac", barrier /. Span.traced_wall ());
            ("parallel.utilization", sum (fun r -> r.worker_utilization) /. n);
            ("parallel.round_us", round_us);
            ( "parallel.round_overhead_us",
              round_us -. List.assoc "codegen.rhs_call_us" codegen );
          ];
    }
