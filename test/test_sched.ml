(* Tests for scheduling: LPT, semi-dynamic LPT and DAG list scheduling. *)

module Task = Om_sched.Task
module Lpt = Om_sched.Lpt
module Semidynamic = Om_sched.Semidynamic
module Dag = Om_sched.Dag_sched
module D = Om_graph.Digraph

let mk_tasks costs =
  Array.of_list
    (List.mapi
       (fun i c ->
         Task.make ~id:i ~label:(Printf.sprintf "t%d" i) ~cost:c ~reads:[ 0 ]
           ~writes:[ i ])
       costs)

(* ---------- task ---------- *)

let test_task_stats () =
  let tasks = mk_tasks [ 1.; 2.; 3. ] in
  Alcotest.(check (float 1e-9)) "total" 6. (Task.total_cost tasks);
  Alcotest.(check (float 1e-9)) "max" 3. (Task.max_cost tasks);
  Task.validate tasks

let test_task_validate_duplicate_write () =
  let t i w = Task.make ~id:i ~label:"x" ~cost:1. ~reads:[] ~writes:[ w ] in
  Alcotest.check_raises "duplicate write"
    (Invalid_argument "Task.validate: output 5 written twice") (fun () ->
      Task.validate [| t 0 5; t 1 5 |])

let test_task_validate_ids () =
  let t i = Task.make ~id:i ~label:"x" ~cost:1. ~reads:[] ~writes:[ i ] in
  Alcotest.check_raises "non-dense ids"
    (Invalid_argument "Task.validate: id 2 at position 1") (fun () ->
      Task.validate [| t 0; t 2 |])

(* ---------- LPT ---------- *)

let test_lpt_balanced () =
  (* 6 equal tasks on 3 processors: perfectly balanced. *)
  let tasks = mk_tasks [ 1.; 1.; 1.; 1.; 1.; 1. ] in
  let s = Lpt.schedule tasks ~nprocs:3 in
  Alcotest.(check (float 1e-9)) "makespan" 2. s.makespan

let test_lpt_classic () =
  (* LPT on {7,6,5,4,3,2} with 2 procs: optimal 14, LPT gives 14. *)
  let tasks = mk_tasks [ 7.; 6.; 5.; 4.; 3.; 2. ] in
  let s = Lpt.schedule tasks ~nprocs:2 in
  Alcotest.(check (float 1e-9)) "makespan" 14. s.makespan

let test_lpt_single_proc () =
  let tasks = mk_tasks [ 3.; 1.; 2. ] in
  let s = Lpt.schedule tasks ~nprocs:1 in
  Alcotest.(check (float 1e-9)) "serial makespan" 6. s.makespan

let test_lpt_override_costs () =
  let tasks = mk_tasks [ 1.; 1. ] in
  let s = Lpt.schedule ~costs:[| 10.; 1. |] tasks ~nprocs:2 in
  Alcotest.(check (float 1e-9)) "uses measured costs" 10. s.makespan

let test_lpt_empty () =
  let s = Lpt.schedule [||] ~nprocs:3 in
  Alcotest.(check (float 1e-12)) "empty makespan" 0. s.makespan

let test_lpt_more_procs_than_tasks () =
  let tasks = mk_tasks [ 5.; 3. ] in
  let s = Lpt.schedule tasks ~nprocs:8 in
  Alcotest.(check (float 1e-12)) "one task per proc" 5. s.makespan

let test_lpt_tasks_of () =
  let tasks = mk_tasks [ 5.; 1.; 1. ] in
  let s = Lpt.schedule tasks ~nprocs:2 in
  let all = List.sort compare (Lpt.tasks_of s 0 @ Lpt.tasks_of s 1) in
  Alcotest.(check (list int)) "partition covers all" [ 0; 1; 2 ] all

let cost_list_gen =
  QCheck.Gen.(list_size (int_range 1 40) (float_range 0.1 100.))

let arbitrary_lpt =
  QCheck.make
    ~print:(fun (costs, p) ->
      Printf.sprintf "%d tasks, %d procs" (List.length costs) p)
    QCheck.Gen.(pair cost_list_gen (int_range 1 8))

let prop_lpt_makespan_bounds =
  QCheck.Test.make ~name:"LPT within list-scheduling bounds" ~count:300
    arbitrary_lpt (fun (costs, nprocs) ->
      let tasks = mk_tasks costs in
      let s = Lpt.schedule tasks ~nprocs in
      let total = Task.total_cost tasks in
      let avg = total /. float_of_int nprocs in
      let lower = Float.max avg (Task.max_cost tasks) in
      (* Any list schedule satisfies makespan <= avg + (1 - 1/m) max. *)
      let upper =
        avg
        +. (1. -. (1. /. float_of_int nprocs)) *. Task.max_cost tasks
      in
      s.makespan >= lower -. 1e-9 && s.makespan <= upper +. 1e-6)

let prop_lpt_loads_consistent =
  QCheck.Test.make ~name:"LPT loads sum to total" ~count:300 arbitrary_lpt
    (fun (costs, nprocs) ->
      let tasks = mk_tasks costs in
      let s = Lpt.schedule tasks ~nprocs in
      let total = Array.fold_left ( +. ) 0. s.loads in
      Float.abs (total -. Task.total_cost tasks) < 1e-6)

(* The production scheduler keeps a min-heap of processors; replay the
   historical O(n·p) linear scan and demand byte-identical assignments,
   including the lowest-index tie-break. *)
let reference_lpt costs nprocs =
  let n = Array.length costs in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare costs.(b) costs.(a)) order;
  let loads = Array.make nprocs 0. in
  let assignment = Array.make n 0 in
  Array.iter
    (fun i ->
      let best = ref 0 in
      for p = 1 to nprocs - 1 do
        if loads.(p) < loads.(!best) then best := p
      done;
      assignment.(i) <- !best;
      loads.(!best) <- loads.(!best) +. costs.(i))
    order;
  assignment

let prop_lpt_heap_matches_linear_scan =
  QCheck.Test.make ~name:"heap LPT matches reference linear scan" ~count:500
    arbitrary_lpt (fun (costs, nprocs) ->
      let tasks = mk_tasks costs in
      let s = Lpt.schedule tasks ~nprocs in
      s.assignment = reference_lpt (Array.of_list costs) nprocs)

(* Duplicate costs force load ties, stressing the tie-break path. *)
let prop_lpt_heap_matches_on_ties =
  QCheck.Test.make ~name:"heap LPT matches reference on tied loads"
    ~count:300
    (QCheck.make
       ~print:(fun (costs, p) ->
         Printf.sprintf "%d tasks, %d procs" (List.length costs) p)
       QCheck.Gen.(
         pair
           (list_size (int_range 1 60)
              (map (fun i -> float_of_int i) (int_range 1 4)))
           (int_range 1 8)))
    (fun (costs, nprocs) ->
      let tasks = mk_tasks costs in
      let s = Lpt.schedule tasks ~nprocs in
      s.assignment = reference_lpt (Array.of_list costs) nprocs)

let prop_lpt_makespan_monotone_in_procs =
  QCheck.Test.make ~name:"more processors never hurt LPT by much" ~count:200
    arbitrary_lpt (fun (costs, nprocs) ->
      let tasks = mk_tasks costs in
      let s1 = Lpt.schedule tasks ~nprocs in
      let s2 = Lpt.schedule tasks ~nprocs:(nprocs + 1) in
      (* LPT is not strictly monotone, but cannot degrade beyond the
         approximation bound. *)
      s2.makespan <= s1.makespan *. (4. /. 3.) +. 1e-9)

(* ---------- semi-dynamic ---------- *)

let test_semidynamic_adapts () =
  (* Static estimates say equal costs; reality is skewed.  After enough
     observations the schedule separates the two heavy tasks. *)
  let tasks = mk_tasks [ 10.; 10.; 10.; 10. ] in
  let sd = Semidynamic.create ~period:1 ~smoothing:1. tasks ~nprocs:2 in
  let measured = [| 100.; 1.; 100.; 1. |] in
  Semidynamic.observe sd measured;
  let s = Semidynamic.current sd in
  Alcotest.(check bool) "heavy tasks split" true
    (s.assignment.(0) <> s.assignment.(2));
  Alcotest.(check int) "one reschedule" 1 (Semidynamic.reschedule_count sd)

let test_semidynamic_period () =
  let tasks = mk_tasks [ 1.; 1. ] in
  let sd = Semidynamic.create ~period:5 tasks ~nprocs:2 in
  for _ = 1 to 4 do
    Semidynamic.observe sd [| 1.; 1. |]
  done;
  Alcotest.(check int) "not yet" 0 (Semidynamic.reschedule_count sd);
  Semidynamic.observe sd [| 1.; 1. |];
  Alcotest.(check int) "now" 1 (Semidynamic.reschedule_count sd)

let test_semidynamic_overhead_model () =
  let tasks = mk_tasks (List.init 64 (fun _ -> 1.)) in
  let per = Semidynamic.overhead_cost_per_reschedule tasks in
  (* n log2 n with n = 64: 64 * 6 = 384. *)
  Alcotest.(check (float 1e-6)) "n log n model" 384. per

let test_semidynamic_wrong_measurement () =
  let tasks = mk_tasks [ 1.; 1. ] in
  let sd = Semidynamic.create tasks ~nprocs:2 in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Semidynamic.observe: wrong measurement vector")
    (fun () -> Semidynamic.observe sd [| 1. |])

let test_semidynamic_smoothing () =
  let tasks = mk_tasks [ 10. ] in
  let sd = Semidynamic.create ~period:100 ~smoothing:0.5 tasks ~nprocs:1 in
  Semidynamic.observe sd [| 20. |];
  Semidynamic.observe sd [| 20. |];
  (* estimate = 10 -> 15 -> 17.5; no reschedule yet so the schedule is
     unchanged, but estimates converge toward measurements. *)
  Alcotest.(check int) "no reschedule" 0 (Semidynamic.reschedule_count sd);
  Alcotest.(check (float 1e-9)) "EWMA after two observations" 17.5
    (Semidynamic.estimates sd).(0)

let test_semidynamic_ewma_converges () =
  (* Repeated observation of constant measured costs drives the EWMA
     estimates geometrically toward the measurements. *)
  let tasks = mk_tasks [ 10.; 10.; 10. ] in
  let sd = Semidynamic.create ~period:1000 ~smoothing:0.5 tasks ~nprocs:2 in
  let measured = [| 2.; 6.; 40. |] in
  for _ = 1 to 30 do
    Semidynamic.observe sd measured
  done;
  let est = Semidynamic.estimates sd in
  Array.iteri
    (fun i m ->
      Alcotest.(check bool)
        (Printf.sprintf "estimate %d converged to %g" i m)
        true
        (Float.abs (est.(i) -. m) < 1e-6))
    measured

let test_semidynamic_exact_period () =
  (* A reschedule fires on exactly every [period]-th observation:
     the count is k after k*period observations and never in between. *)
  let period = 4 in
  let tasks = mk_tasks [ 1.; 1.; 1. ] in
  let sd = Semidynamic.create ~period tasks ~nprocs:2 in
  for i = 1 to 3 * period do
    Semidynamic.observe sd [| 1.; 1.; 1. |];
    Alcotest.(check int)
      (Printf.sprintf "reschedule count after %d observations" i)
      (i / period)
      (Semidynamic.reschedule_count sd)
  done

let test_semidynamic_initial_costs () =
  (* [?costs] overrides both the initial estimates and the initial
     schedule; a mismatched length is rejected. *)
  let tasks = mk_tasks [ 1.; 1. ] in
  let sd = Semidynamic.create ~costs:[| 10.; 1. |] tasks ~nprocs:2 in
  Alcotest.(check (float 1e-9)) "initial makespan from costs" 10.
    (Semidynamic.current sd).makespan;
  let est = Semidynamic.estimates sd in
  Alcotest.(check (float 1e-9)) "initial estimate 0" 10. est.(0);
  Alcotest.(check (float 1e-9)) "initial estimate 1" 1. est.(1);
  Alcotest.(check bool) "wrong-length costs rejected" true
    (match Semidynamic.create ~costs:[| 1. |] tasks ~nprocs:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_semidynamic_cost_inversion () =
  (* Static estimates put one heavy task alone and pile the light ones
     on the other processor.  When measurements invert the costs, the
     rebuilt schedule must break up the now-overloaded worker. *)
  let tasks = mk_tasks [ 8.; 1.; 1.; 1.; 1.; 1. ] in
  let sd = Semidynamic.create ~period:1 ~smoothing:1. tasks ~nprocs:2 in
  let initial = Semidynamic.current sd in
  let light_proc = initial.assignment.(1) in
  Alcotest.(check int) "statically the heavy task sits alone"
    (1 - light_proc)
    initial.assignment.(0);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "light task %d packed together" i)
        light_proc initial.assignment.(i))
    [ 1; 2; 3; 4; 5 ];
  (* Reality inverted: task 0 is cheap, the "light" tasks are heavy. *)
  Semidynamic.observe sd [| 1.; 4.; 4.; 4.; 4.; 4. |];
  let rebuilt = Semidynamic.current sd in
  Alcotest.(check int) "reschedule happened" 1
    (Semidynamic.reschedule_count sd);
  let heavy_on_light_proc =
    List.filter (fun i -> rebuilt.assignment.(i) = light_proc) [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool)
    "the overloaded worker sheds some of the now-heavy tasks" true
    (List.length heavy_on_light_proc < 5);
  (* LPT on {4,4,4,4,4,1}: loads 12 and 9 — the optimum for these
     costs (every subset sum is 4k or 4k+1, so 11 is unreachable). *)
  Alcotest.(check (float 1e-9)) "rebuilt makespan is the LPT optimum" 12.
    rebuilt.makespan

(* ---------- DAG scheduling ---------- *)

let diamond () =
  D.of_edges [ "a"; "b"; "c"; "d" ]
    [ ("a", "b"); ("a", "c"); ("b", "d"); ("c", "d") ]

let test_dag_critical_path () =
  let g = diamond () in
  (* The critical path a-b-d weighs 3 of the total 4. *)
  Alcotest.(check (float 1e-9)) "max speedup" (4. /. 3.)
    (Dag.max_speedup g ~weights:[| 1.; 1.; 1.; 1. |])

let test_dag_schedule_two_procs () =
  let g = diamond () in
  let s = Dag.schedule g ~weights:[| 1.; 1.; 1.; 1. |] ~comm:0. ~nprocs:2 in
  Alcotest.(check (float 1e-9)) "makespan = critical path" 3. s.makespan

let test_dag_schedule_one_proc () =
  let g = diamond () in
  let s = Dag.schedule g ~weights:[| 1.; 1.; 1.; 1. |] ~comm:0. ~nprocs:1 in
  Alcotest.(check (float 1e-9)) "serial" 4. s.makespan

let test_dag_comm_cost_matters () =
  (* With huge communication it is better to serialise on one processor:
     makespan stays bounded by the serial time. *)
  let g = diamond () in
  let s = Dag.schedule g ~weights:[| 1.; 1.; 1.; 1. |] ~comm:100. ~nprocs:4 in
  Alcotest.(check bool) "avoids communication" true (s.makespan <= 4. +. 1e-9)

let test_dag_cycle_rejected () =
  let g = D.of_edges [ "a"; "b" ] [ ("a", "b"); ("b", "a") ] in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Topo.sort: graph has a cycle") (fun () ->
      ignore (Dag.schedule g ~weights:[| 1.; 1. |] ~comm:0. ~nprocs:2))

let random_dag_gen =
  QCheck.Gen.(
    let* n = int_range 1 10 in
    let* edges =
      list_size (int_bound (2 * n))
        (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    let* weights = array_size (return n) (float_range 0.5 10.) in
    let* nprocs = int_range 1 4 in
    let* comm = float_range 0. 5. in
    return (n, edges, weights, nprocs, comm))

let arbitrary_dag =
  QCheck.make
    ~print:(fun (n, _, _, p, c) -> Printf.sprintf "n=%d p=%d comm=%g" n p c)
    random_dag_gen

let prop_dag_schedule_valid =
  QCheck.Test.make ~name:"DAG schedules respect precedence and resources"
    ~count:300 arbitrary_dag (fun (n, edges, weights, nprocs, comm) ->
      let g = D.create () in
      for i = 0 to n - 1 do
        ignore (D.add_node g (string_of_int i))
      done;
      List.iter (fun (a, b) -> if a < b then D.add_edge g a b) edges;
      let s = Dag.schedule g ~weights ~comm ~nprocs in
      (* Precedence with communication delays. *)
      let prec_ok =
        List.for_all
          (fun (a, b) ->
            s.start_time.(b)
            >= s.finish_time.(a)
               +. (if s.assignment.(a) = s.assignment.(b) then 0. else comm)
               -. 1e-9)
          (D.edges g)
      in
      (* No two tasks overlap on one processor. *)
      let overlap_ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && s.assignment.(i) = s.assignment.(j) then
            if
              s.start_time.(i) < s.finish_time.(j) -. 1e-9
              && s.start_time.(j) < s.finish_time.(i) -. 1e-9
            then overlap_ok := false
        done
      done;
      prec_ok && !overlap_ok)

(* ---------- pipeline parallelism ---------- *)

let test_pipeline_chain () =
  (* A chain a -> b -> c of equal stages pipelines perfectly. *)
  let g = D.of_edges [ "a"; "b"; "c" ] [ ("a", "b"); ("b", "c") ] in
  Alcotest.(check (float 1e-9)) "3 procs" 3.
    (Dag.pipeline_throughput g ~weights:[| 1.; 1.; 1. |] ~nprocs:3);
  Alcotest.(check (float 1e-9)) "1 proc" 1.
    (Dag.pipeline_throughput g ~weights:[| 1.; 1.; 1. |] ~nprocs:1)

let test_pipeline_bottleneck () =
  let g = D.of_edges [ "a"; "b"; "c" ] [ ("a", "b"); ("b", "c") ] in
  (* The heaviest stage is the initiation interval. *)
  Alcotest.(check (float 1e-9)) "bound by heavy stage" (5. /. 3.)
    (Dag.pipeline_throughput g ~weights:[| 3.; 1.; 1. |] ~nprocs:3)

let test_pipeline_beats_dag_on_chains () =
  (* A pure chain has no DAG parallelism but full pipeline throughput. *)
  let g = D.of_edges [ "a"; "b"; "c"; "d" ]
      [ ("a", "b"); ("b", "c"); ("c", "d") ]
  in
  let w = [| 1.; 1.; 1.; 1. |] in
  Alcotest.(check (float 1e-9)) "dag speedup 1" 1.
    (Dag.speedup g ~weights:w ~comm:0. ~nprocs:4);
  Alcotest.(check (float 1e-9)) "pipeline speedup 4" 4.
    (Dag.pipeline_throughput g ~weights:w ~nprocs:4)

let test_pipeline_cycle_rejected () =
  let g = D.of_edges [ "a"; "b" ] [ ("a", "b"); ("b", "a") ] in
  Alcotest.check_raises "cycle"
    (Invalid_argument "Dag_sched.pipeline_throughput: graph has a cycle")
    (fun () ->
      ignore (Dag.pipeline_throughput g ~weights:[| 1.; 1. |] ~nprocs:2))

let test_nprocs_boundary () =
  (* Both entry points share the raise-on-nonpositive contract:
     [pipeline_throughput] used to clamp [max 1 nprocs] silently while
     [schedule] raised, hiding caller bugs on one path only. *)
  let g = D.of_edges [ "a"; "b" ] [ ("a", "b") ] in
  let w = [| 1.; 1. |] in
  Alcotest.check_raises "schedule rejects 0"
    (Invalid_argument "Dag_sched.schedule: nprocs < 1") (fun () ->
      ignore (Dag.schedule g ~weights:w ~comm:0. ~nprocs:0));
  Alcotest.check_raises "pipeline rejects 0"
    (Invalid_argument "Dag_sched.pipeline_throughput: nprocs < 1") (fun () ->
      ignore (Dag.pipeline_throughput g ~weights:w ~nprocs:0));
  Alcotest.check_raises "pipeline rejects negative"
    (Invalid_argument "Dag_sched.pipeline_throughput: nprocs < 1") (fun () ->
      ignore (Dag.pipeline_throughput g ~weights:w ~nprocs:(-3)));
  (* nprocs = 1 is the smallest legal value on both. *)
  Alcotest.(check (float 1e-9)) "schedule at 1 proc" 2.
    (Dag.schedule g ~weights:w ~comm:0. ~nprocs:1).makespan;
  Alcotest.(check (float 1e-9)) "pipeline at 1 proc" 1.
    (Dag.pipeline_throughput g ~weights:w ~nprocs:1)

let () =
  let q = Qcheck_seed.to_alcotest in
  Alcotest.run "om_sched"
    [
      ( "task",
        [
          Alcotest.test_case "stats" `Quick test_task_stats;
          Alcotest.test_case "duplicate write" `Quick
            test_task_validate_duplicate_write;
          Alcotest.test_case "dense ids" `Quick test_task_validate_ids;
        ] );
      ( "lpt",
        [
          Alcotest.test_case "balanced" `Quick test_lpt_balanced;
          Alcotest.test_case "classic instance" `Quick test_lpt_classic;
          Alcotest.test_case "single processor" `Quick test_lpt_single_proc;
          Alcotest.test_case "override costs" `Quick test_lpt_override_costs;
          Alcotest.test_case "tasks_of partition" `Quick test_lpt_tasks_of;
          Alcotest.test_case "empty task set" `Quick test_lpt_empty;
          Alcotest.test_case "more procs than tasks" `Quick
            test_lpt_more_procs_than_tasks;
          q prop_lpt_makespan_bounds;
          q prop_lpt_loads_consistent;
          q prop_lpt_heap_matches_linear_scan;
          q prop_lpt_heap_matches_on_ties;
          q prop_lpt_makespan_monotone_in_procs;
        ] );
      ( "semidynamic",
        [
          Alcotest.test_case "adapts to measurements" `Quick
            test_semidynamic_adapts;
          Alcotest.test_case "reschedule period" `Quick test_semidynamic_period;
          Alcotest.test_case "overhead model" `Quick
            test_semidynamic_overhead_model;
          Alcotest.test_case "smoothing" `Quick test_semidynamic_smoothing;
          Alcotest.test_case "wrong measurement vector" `Quick
            test_semidynamic_wrong_measurement;
          Alcotest.test_case "EWMA converges" `Quick
            test_semidynamic_ewma_converges;
          Alcotest.test_case "exact period" `Quick
            test_semidynamic_exact_period;
          Alcotest.test_case "initial costs" `Quick
            test_semidynamic_initial_costs;
          Alcotest.test_case "cost inversion" `Quick
            test_semidynamic_cost_inversion;
        ] );
      ( "dag",
        [
          Alcotest.test_case "critical path" `Quick test_dag_critical_path;
          Alcotest.test_case "two processors" `Quick
            test_dag_schedule_two_procs;
          Alcotest.test_case "one processor" `Quick test_dag_schedule_one_proc;
          Alcotest.test_case "communication" `Quick test_dag_comm_cost_matters;
          Alcotest.test_case "cycle rejected" `Quick test_dag_cycle_rejected;
          q prop_dag_schedule_valid;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "chain" `Quick test_pipeline_chain;
          Alcotest.test_case "bottleneck stage" `Quick
            test_pipeline_bottleneck;
          Alcotest.test_case "chains pipeline but do not parallelise"
            `Quick test_pipeline_beats_dag_on_chains;
          Alcotest.test_case "cycle rejected" `Quick
            test_pipeline_cycle_rejected;
          Alcotest.test_case "nprocs boundary" `Quick test_nprocs_boundary;
        ] );
    ]
