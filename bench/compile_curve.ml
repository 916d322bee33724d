(* compile-curve: the cost of [Pipeline.compile_source] against model
   size, stage by stage.  The 1D heat equation is reported in
   microseconds per state and the scaled bearing in milliseconds per
   roller, so a compiler that is linear in model size draws flat rows.

   The stages are those of [Pipeline.compile_source], called in its
   order: parse, flatten, typecheck, assignments, partition, backend
   (CSE, lowering, peephole and the schedulable task view) and the
   dependency analysis.  Each size is compiled [repeats] times after a
   full major GC; every stage reports its best time over the repeats,
   and the total is the best whole compile. *)

module P = Om_codegen.Pipeline

let stages =
  [ "parse"; "flatten"; "typecheck"; "assign"; "partition"; "backend";
    "analyse" ]

(* One compile, stage by stage: the seconds of each stage. *)
let staged source =
  let config = P.default_config in
  let times = Array.make (List.length stages) 0. in
  let timed k f =
    let t0 = Om_parallel.Monotonic.now () in
    let v = f () in
    times.(k) <- Om_parallel.Monotonic.now () -. t0;
    v
  in
  let ast = timed 0 (fun () -> Om_lang.Parser.parse_model source) in
  let model = timed 1 (fun () -> Om_lang.Flatten.flatten ast) in
  timed 2 (fun () -> Om_lang.Typecheck.check model);
  let assigns =
    timed 3 (fun () -> Om_codegen.Assignments.of_flat_model model)
  in
  let plan =
    timed 4 (fun () ->
        let plan =
          Om_codegen.Partition.partition
            ~merge_threshold:config.merge_threshold
            ~split_threshold:config.split_threshold assigns
        in
        Om_codegen.Partition.validate plan;
        plan)
  in
  timed 5 (fun () ->
      let compiled =
        Om_codegen.Bytecode_backend.compile ~scope:config.cse_scope plan
          ~state_names:(Om_lang.Flat_model.state_names model)
      in
      let tasks =
        Array.map
          (fun (ct : Om_codegen.Bytecode_backend.compiled_task) ->
            Om_sched.Task.make ~id:ct.id ~label:ct.label ~cost:ct.static_cost
              ~reads:ct.reads ~writes:ct.writes)
          compiled.tasks
      in
      Om_sched.Task.validate tasks);
  timed 6 (fun () -> ignore (P.analyse model));
  times

(* Best per stage and best total over [repeats] compiles of one size.
   The major GC's cost per compile depends on how large the heap already
   is, so the sizes run smallest first: every size's later compiles find
   the heap its own first compile grew, not one a larger model left. *)
let best ~repeats source =
  let per_stage = Array.make (List.length stages) infinity in
  let total = ref infinity in
  for _ = 1 to repeats do
    Gc.full_major ();
    let times = staged source in
    Array.iteri (fun k s -> per_stage.(k) <- Float.min per_stage.(k) s) times;
    total := Float.min !total (Array.fold_left ( +. ) 0. times)
  done;
  (per_stage, !total)

(* One table: a row per size, every time divided by the size and scaled
   to [unit].  [rows] are in ascending size. *)
let table ~title ~unit ~scale ~repeats rows =
  Printf.printf "\n%s (%s; best of %d)\n" title unit repeats;
  Printf.printf "%8s" "size";
  List.iter (fun s -> Printf.printf " %9s" s) stages;
  Printf.printf " %9s %9s\n" "total" "total_ms";
  List.iter
    (fun (size, source) ->
      let per_stage, total = best ~repeats source in
      let per x = x *. scale /. float_of_int size in
      Printf.printf "%8d" size;
      Array.iter (fun s -> Printf.printf " %9.2f" (per s)) per_stage;
      Printf.printf " %9.2f %9.1f\n%!" (per total) (total *. 1e3))
    rows

let heat_source states =
  Om_lang.Unparse.flat_model
    (Om_pde.Discretize.heat_1d ~n:(states + 2) ~alpha:0.1 ())

let run ~heat ~rollers ~repeats =
  Printf.printf
    "\n================================================================\n\
     Compile cost against model size (Pipeline.compile_source)\n\
     ================================================================\n";
  table ~title:"heat, per state" ~unit:"us per state" ~scale:1e6 ~repeats
    (List.map (fun n -> (n, heat_source n)) heat);
  table ~title:"bearing_scaled, per roller" ~unit:"ms per roller" ~scale:1e3
    ~repeats
    (List.map
       (fun n -> (n, Om_models.Bearing_scaled.source ~n_rollers:n ()))
       rollers)

let full () =
  run
    ~heat:[ 1000; 2000; 4000; 8000; 16000; 32000 ]
    ~rollers:[ 40; 80; 160; 320 ]
    ~repeats:5

(* CI variant: small sizes, one repeat less. *)
let smoke () = run ~heat:[ 250; 500; 1000 ] ~rollers:[ 4; 8 ] ~repeats:2
