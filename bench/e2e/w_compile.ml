(* compile-scaling: [Pipeline.compile_source] on models of growing size —
   the scaled bearing at two roller counts and the 1D heat equation at
   three grid sizes.  One op is one compile.  Op time is the geometric
   mean over the models of each model's fast-decile compile time, so
   every size weighs the same.  Set-up renders the model sources.

   Checks: the generated RHS equals the reference tree-walking
   interpreter at the start state, the state count is exact, and the VM
   instruction and task counts are within 50% of their pins (wide enough
   for a better code generator, narrow enough to catch a broken one). *)

open Harness

let full =
  [
    ("bearing_scaled-20", fun ~seed -> Models.bearing_scaled ~seed ~n_rollers:20);
    ("bearing_scaled-40", fun ~seed -> Models.bearing_scaled ~seed ~n_rollers:40);
    ("heat-500", fun ~seed -> Models.heat ~seed ~states:500);
    ("heat-1000", fun ~seed -> Models.heat ~seed ~states:1000);
    ("heat-2000", fun ~seed -> Models.heat ~seed ~states:2000);
  ]

let smoke =
  [
    ("bearing_scaled-4", fun ~seed -> Models.bearing_scaled ~seed ~n_rollers:4);
    ("heat-100", fun ~seed -> Models.heat ~seed ~states:100);
    ("heat-200", fun ~seed -> Models.heat ~seed ~states:200);
  ]

(* The per-layer metric of one model's fast-decile compile time. *)
let model_metric name = "compile." ^ name ^ "_ms"

(* Largest relative difference between the generated code's derivative
   and the interpreter's, at the model's start state. *)
let rhs_mismatch (c : Om_codegen.Pipeline.result) =
  let sys =
    Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false c.model.equations
  in
  let y0 = Om_lang.Flat_model.initial_values c.model in
  let reference = Array.make sys.dim 0. and generated = Array.make sys.dim 0. in
  sys.f 0.1 y0 reference;
  Om_codegen.Pipeline.rhs_fn c 0.1 y0 generated;
  let worst = ref 0. in
  Array.iteri
    (fun i r ->
      let g = generated.(i) in
      let d = Float.abs (r -. g) /. Float.max 1e-300 (Float.max (Float.abs r) (Float.abs g)) in
      if d > !worst || Float.is_nan d then worst := d)
    reference;
  !worst

(* Check one compile of a model; its static counts. *)
let check_compile t pins name (r : Om_codegen.Pipeline.result) =
  let mismatch = rhs_mismatch r in
  check t (mismatch <= 1e-12)
    "%s: generated RHS within 1e-12 of the interpreter (worst %g)" name mismatch;
  near_pin t pins (name ^ ".states") ~tol:0. (float_of_int r.compiled.dim);
  near_pin t pins (name ^ ".vm_instrs") ~tol:0.5 (float_of_int r.compiled.vm_instrs);
  near_pin t pins (name ^ ".tasks") ~tol:0.5 (float_of_int (Array.length r.tasks));
  [ float_of_int r.compiled.vm_instrs; float_of_int (Array.length r.tasks);
    float_of_int r.compiled.cse_temp_total ]

(* The model with the least compile time spent on it goes next, so every
   size gets about the same share of the window (and the small models
   many samples).  Under tracing, each model's odd-numbered compiles are
   traced.  Between two compiles, untimed, a full major GC leaves the
   heap as a fresh [omc] process would find it, so no compile pays for
   the previous one's garbage.  No result is kept: after the window,
   each model is compiled once more and checked. *)
let run ctx =
  let t = tally () in
  let specs = if ctx.smoke then smoke else full in
  let sources, setup =
    setup (fun () ->
        Array.of_list (List.map (fun (name, make) -> (name, make ~seed:ctx.seed)) specs))
  in
  let n = Array.length sources in
  let spent = Array.make n 0. and count = Array.make n 0 in
  let times = Array.make n [] and traced_times = Array.make n [] in
  let stage_sums = Array.make n [] in
  let gaps = ref [] and kernels = ref [] in
  let start = now () in
  let prev_end = ref start and last_kernel = ref neg_infinity in
  while Array.exists (fun c -> c < 2) count || now () -. start < ctx.seconds do
    maybe_kernel kernels last_kernel;
    Gc.full_major ();
    prev_end := now ();
    let i = ref 0 in
    Array.iteri (fun j s -> if s < spent.(!i) then i := j) spent;
    let i = !i in
    let name, source = sources.(i) in
    let traced = ctx.trace && count.(i) land 1 = 1 in
    Span.enabled := traced;
    let t0 = now () in
    gaps := (t0 -. !prev_end) :: !gaps;
    let stages_before = Models.stage_total () in
    Span.with_ ~req:name "bench.op" (fun () ->
        ignore
          (if traced then Models.staged_compile ~req:name source
           else Om_codegen.Pipeline.compile_source source));
    let t1 = now () in
    Span.enabled := false;
    let dt = t1 -. t0 in
    if traced then begin
      traced_times.(i) <- dt :: traced_times.(i);
      stage_sums.(i) <- (Models.stage_total () -. stages_before) :: stage_sums.(i)
    end
    else times.(i) <- dt :: times.(i);
    spent.(i) <- spent.(i) +. dt;
    count.(i) <- count.(i) + 1
  done;
  let loop =
    { untraced = List.concat (Array.to_list times);
      traced = List.concat (Array.to_list traced_times);
      gaps = !gaps; kernels = !kernels; ops = Array.fold_left ( + ) 0 count;
      rss_mb = self_peak_rss_mb () }
  in
  let setup_s = setup_s ctx setup in
  let pins = pins ctx "compile" in
  let counts =
    Array.map
      (fun (name, source) ->
        check_compile t pins name (Om_codegen.Pipeline.compile_source source))
      sources
  in
  let op_times = Array.map (op_time loop) times in
  if not ctx.trace then
    {
      tally = t;
      metrics =
        [
          ("setup_s", setup_s);
          ("op_time_ms", ms (Stat.geomean (Array.to_list op_times)));
          ("peak_rss_mb", loop.rss_mb);
        ];
    }
  else
    (* Per model, the median traced compile and the median stage sum are
       set beside the median untraced compile; the geometric mean over
       the models is reported. *)
    let per_model of_traced =
      Stat.geomean
        (Array.to_list
           (Array.mapi (fun i u -> Stat.median (of_traced i) /. Stat.median u) times))
    in
    let summed k = Stat.sum (Array.to_list (Array.map (fun c -> List.nth c k) counts)) in
    {
      tally = t;
      metrics =
        trace_metrics loop @ span_fracs ()
        @ [
            ("trace.overhead_frac", per_model (fun i -> traced_times.(i)) -. 1.);
            ("compile.stage_coverage", per_model (fun i -> stage_sums.(i)));
            ("codegen.vm_instrs", summed 0);
            ("codegen.tasks", summed 1);
            ("codegen.cse_temps", summed 2);
          ]
        @ Array.to_list
            (Array.mapi (fun i (name, _) -> (model_metric name, ms op_times.(i))) sources);
    }
