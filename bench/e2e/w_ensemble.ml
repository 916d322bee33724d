(* ensemble-512: 512 perturbed 2D-bearing trajectories advanced in
   lockstep by [Ensemble.rk4] over the batched register VM
   ([Batch_backend], i.e. [Vm_batch]).  One op is one ensemble
   integration of all 512; set-up is the compile plus
   [Batch_backend.create] at width 512.

   Check: 8 seeded lanes are bitwise equal to scalar
   [Rk.integrate_fixed] runs of [Pipeline.rhs_fn] from the same start. *)

open Harness

let h = 2e-5
let width ctx = if ctx.smoke then 32 else 512
let steps ctx = if ctx.smoke then 5 else 12

(* Seeded start states: each lane's state scaled by 1 + 1e-3 u. *)
let starts ctx y0 =
  let rng = Draws.stream ~seed:ctx.seed ~salt:"ensemble-starts" in
  Array.init (width ctx) (fun _ ->
      Array.map (fun v -> v *. (1. +. (1e-3 *. Draws.symmetric rng))) y0)

let run ctx =
  let t = tally () in
  let source = Models.bearing2d ~seed:ctx.seed ~salt:"ensemble-512" in
  let width = width ctx and tend = h *. float_of_int (steps ctx) in
  let (compiled, batch), setup =
    setup (fun () ->
        let c = Om_codegen.Pipeline.compile_source source in
        (c, Om_codegen.Batch_backend.create c.compiled ~width))
  in
  let stage_coverage = if ctx.trace then Models.setup_stage_coverage source else 0. in
  let y0 = starts ctx (Om_lang.Flat_model.initial_values compiled.model) in
  let dim = compiled.compiled.dim in
  let brhs =
    let f = Om_codegen.Batch_backend.brhs batch in
    fun ~times ~y ~ydot ~lo ~hi ->
      Span.leaf "ensemble.brhs" (fun () -> f ~times ~y ~ydot ~lo ~hi)
  in
  let last = ref None in
  let loop =
    closed_loop ctx (fun _ ->
        let ens =
          Span.with_ "ensemble.create" (fun () ->
              Om_ode.Ensemble.create ~dim ~f:brhs y0)
        in
        last :=
          Some (Span.with_ "ensemble.rk4" (fun () ->
                    Om_ode.Ensemble.rk4 ens ~t0:0. ~tend ~h)))
  in
  let setup_s = setup_s ctx setup in
  let report = Option.get !last in
  let rng = Draws.stream ~seed:ctx.seed ~salt:"ensemble-check" in
  let sys = Om_ode.Odesys.make ~dim (Om_codegen.Pipeline.rhs_fn compiled) in
  for _ = 1 to 8 do
    let lane = Random.State.int rng width in
    let traj =
      Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 sys ~t0:0. ~y0:y0.(lane) ~tend ~h
    in
    check t
      (bits_equal report.final.(lane) (Om_ode.Odesys.final_state traj))
      "ensemble lane %d bitwise equal to scalar RK4" lane
  done;
  if not ctx.trace then
    {
      tally = t;
      metrics =
        closed_e2e ~setup_s ~loop ~latencies:loop.untraced ~rss:loop.rss_mb;
    }
  else
    {
      tally = t;
      metrics =
        trace_metrics loop @ span_fracs () @ Models.codegen_metrics compiled
        @ [
            ("compile.stage_coverage", stage_coverage);
            ("ode.steps", float_of_int report.steps.(0));
            ("ode.rhs_calls", float_of_int report.rhs_evals.(0));
            ( "ensemble.brhs_calls",
              float_of_int (Span.count "ensemble.brhs")
              /. float_of_int (max 1 (Span.count "ensemble.rk4")) );
            ( "ensemble.lane_rhs_ns",
              Span.self "ensemble.brhs"
              /. float_of_int (max 1 (Span.count "ensemble.brhs") * width)
              *. 1e9 );
          ];
    }
