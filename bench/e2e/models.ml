(* Seeded model sources, and the traced stage-by-stage mirror of
   [Pipeline.compile_source]. *)

(* The 2D bearing with its external load perturbed by a seeded relative
   [1e-6 * u], u in [-1, 1): every seed is a distinct input, while the
   solver's step sequence — the work — stays the same. *)
let perturb_load ~seed ~salt src =
  let rng = Draws.stream ~seed ~salt in
  let fy = -500. *. (1. +. (1e-6 *. Draws.symmetric rng)) in
  let needle = "fy_ext = -500.0" in
  let n = String.length needle in
  let rec find i =
    if i + n > String.length src then failwith "bearing source has no fy_ext"
    else if String.sub src i n = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i
  ^ Printf.sprintf "fy_ext = %.17g" fy
  ^ String.sub src (i + n) (String.length src - i - n)

let bearing2d ~seed ~salt =
  perturb_load ~seed ~salt (Om_models.Bearing2d.source ())

let bearing_scaled ~seed ~n_rollers =
  perturb_load ~seed ~salt:(Printf.sprintf "bearing_scaled-%d" n_rollers)
    (Om_models.Bearing_scaled.source ~n_rollers ())

(* The 1D heat equation at [states] interior nodes, rendered back to
   source text, with a seeded diffusivity. *)
let heat ~seed ~states =
  let rng = Draws.stream ~seed ~salt:(Printf.sprintf "heat-%d" states) in
  let alpha = 0.1 *. (1. +. (1e-3 *. Draws.symmetric rng)) in
  Om_lang.Unparse.flat_model
    (Om_pde.Discretize.heat_1d ~n:(states + 2) ~alpha ())

(* [Pipeline.compile_source] stage by stage, each stage in its own span:
   parse, flatten, typecheck, assignments, partition, backend (CSE,
   lowering and peephole, plus the schedulable task view) and the
   dependency analysis.  The calls and their order are those of
   [Pipeline.compile_source] and [Pipeline.compile], so the result is the
   same compiled artifact. *)
let staged_compile ?(req = "compile") source : Om_codegen.Pipeline.result =
  let config = Om_codegen.Pipeline.default_config in
  Span.with_ ~req "bench.compile" (fun () ->
      let ast =
        Span.with_ "lang.parse" (fun () -> Om_lang.Parser.parse_model source)
      in
      let model = Span.with_ "lang.flatten" (fun () -> Om_lang.Flatten.flatten ast) in
      Span.with_ "lang.typecheck" (fun () -> Om_lang.Typecheck.check model);
      let assigns =
        Span.with_ "codegen.assign" (fun () ->
            Om_codegen.Assignments.of_flat_model model)
      in
      let plan =
        Span.with_ "codegen.partition" (fun () ->
            let plan =
              Om_codegen.Partition.partition
                ~merge_threshold:config.merge_threshold
                ~split_threshold:config.split_threshold assigns
            in
            Om_codegen.Partition.validate plan;
            plan)
      in
      let compiled, tasks =
        Span.with_ "codegen.backend" (fun () ->
            let compiled =
              Om_codegen.Bytecode_backend.compile ~scope:config.cse_scope plan
                ~state_names:(Om_lang.Flat_model.state_names model)
            in
            let tasks =
              Array.map
                (fun (ct : Om_codegen.Bytecode_backend.compiled_task) ->
                  Om_sched.Task.make ~id:ct.id ~label:ct.label
                    ~cost:ct.static_cost ~reads:ct.reads ~writes:ct.writes)
                compiled.tasks
            in
            Om_sched.Task.validate tasks;
            (compiled, tasks))
      in
      let analysis =
        Span.with_ "graph.analyse" (fun () -> Om_codegen.Pipeline.analyse model)
      in
      { Om_codegen.Pipeline.model; assigns; plan; compiled; tasks; analysis })

let stages =
  [ "lang.parse"; "lang.flatten"; "lang.typecheck"; "codegen.assign";
    "codegen.partition"; "codegen.backend"; "graph.analyse" ]

let stage_total () = List.fold_left (fun acc s -> acc +. Span.self s) 0. stages

(* One traced compile; the seconds its stage spans cover. *)
let traced_stage_sum ~req source =
  let before = stage_total () in
  Span.enabled := true;
  ignore (staged_compile ~req source);
  Span.enabled := false;
  stage_total () -. before

(* The [compile.stage_coverage] of a workload that compiles only in
   set-up: the median stage sum of five traced compiles over the median
   of five untraced [compile_source] runs, the two kinds alternating. *)
let setup_stage_coverage source =
  let untraced = ref [] and staged = ref [] in
  for _ = 1 to 5 do
    let t0 = Span.now () in
    ignore (Om_codegen.Pipeline.compile_source source);
    untraced := (Span.now () -. t0) :: !untraced;
    staged := traced_stage_sum ~req:"setup" source :: !staged
  done;
  Stat.median !staged /. Stat.median !untraced

(* Microseconds per sequential [Pipeline.rhs_fn] call at the start
   state, after a warm-up: the generated code's own cost, with no
   scheduling, scatter or barrier. *)
let rhs_call_us (r : Om_codegen.Pipeline.result) =
  let f = Om_codegen.Pipeline.rhs_fn r in
  let y = Om_lang.Flat_model.initial_values r.model in
  let ydot = Array.make (Array.length y) 0. in
  for _ = 1 to 50 do f 0. y ydot done;
  let n = 2000 in
  let t0 = Span.now () in
  for _ = 1 to n do f 0. y ydot done;
  (Span.now () -. t0) /. float_of_int n *. 1e6

(* The static counts of a compiled model and its RHS call time. *)
let codegen_metrics (r : Om_codegen.Pipeline.result) =
  [
    ("codegen.vm_instrs", float_of_int r.compiled.vm_instrs);
    ("codegen.tasks", float_of_int (Array.length r.tasks));
    ("codegen.cse_temps", float_of_int r.compiled.cse_temp_total);
    ("codegen.rhs_call_us", rhs_call_us r);
  ]

(* Final state of [report], reordered to [names]. *)
let final_by_name (r : Om_codegen.Pipeline.result)
    (traj : Om_ode.Odesys.trajectory) names =
  let yf = Om_ode.Odesys.final_state traj in
  let idx = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace idx n i) r.compiled.state_names;
  Array.map (fun n -> yf.(Hashtbl.find idx n)) names
