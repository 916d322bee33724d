(* The benchmark's metric vocabulary: one name, unit and direction per
   metric, shared by every workload.  BENCHMARK.json at the repository
   root lists the same names; the harness tests check the two agree. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better;
                bound : float option  (** end-to-end metrics only *) }

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

(* Every workload reports all three, each with its own meaning of one
   operation (see README.md). *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "op_time_ms" "ms" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.2;
  ]

(* Layer times are shares ([frac]) of the traced wall time, so a layer a
   workload never enters reads 0 rather than a time; counts are per
   traced op unless named otherwise.  Per-call and per-job times are
   unscaled, with [calib.kernel_ms] beside them; the per-model compile
   times are scaled like [op_time_ms], whose parts they are. *)
let per_layer =
  [
    layer "calib.kernel_ms" "ms" Lower;
    layer "trace.wall_s" "s" Lower;
    layer "trace.ops" "count" Higher;
    layer "trace.overhead_frac" "frac" Lower;
    layer "trace.coverage" "frac" Higher;
    layer "trace.matches_cli" "bool" Higher;
    layer "loadgen.offered" "count" Higher;
    layer "loadgen.completed" "count" Higher;
    layer "loadgen.lag_p99_ms" "ms" Lower;
    layer "loadgen.closed_per_s" "1/s" Higher;
    layer "loadgen.p90_over_p50" "ratio" Lower;
    layer "lang.parse_frac" "frac" Lower;
    layer "lang.flatten_frac" "frac" Lower;
    layer "lang.typecheck_frac" "frac" Lower;
    layer "graph.analyse_frac" "frac" Lower;
    layer "codegen.assign_frac" "frac" Lower;
    layer "codegen.partition_frac" "frac" Lower;
    layer "codegen.backend_frac" "frac" Lower;
    layer "compile.stage_coverage" "frac" Higher;
  ]
  @ List.map (fun (name, _) -> layer (W_compile.model_metric name) "ms" Lower) W_compile.full
  @ [
    layer "codegen.vm_instrs" "count" Lower;
    layer "codegen.tasks" "count" Higher;
    layer "codegen.cse_temps" "count" Lower;
    layer "codegen.rhs_call_us" "us" Lower;
    layer "expr.of_equations_frac" "frac" Lower;
    layer "expr.rhs_frac" "frac" Lower;
    layer "expr.jac_frac" "frac" Lower;
    layer "expr.rhs_call_us" "us" Lower;
    layer "expr.jac_call_us" "us" Lower;
    layer "ode.solver_self_frac" "frac" Lower;
    layer "ode.steps" "count" Lower;
    layer "ode.rhs_calls" "count" Lower;
    layer "ode.jac_calls" "count" Lower;
    layer "ode.rejected" "count" Lower;
    layer "ode.newton_iters" "count" Lower;
    layer "ode.lu_factorisations" "count" Lower;
    layer "parallel.barrier_frac" "frac" Lower;
    layer "parallel.utilization" "frac" Higher;
    layer "parallel.round_us" "us" Lower;
    layer "parallel.round_overhead_us" "us" Lower;
    layer "ensemble.create_frac" "frac" Lower;
    layer "ensemble.brhs_frac" "frac" Lower;
    layer "ensemble.stepper_self_frac" "frac" Lower;
    layer "ensemble.brhs_calls" "count" Lower;
    layer "ensemble.lane_rhs_ns" "ns" Lower;
    layer "serve.queue_frac" "frac" Lower;
    layer "serve.run_frac" "frac" Lower;
    layer "serve.latency_p99_ms" "ms" Lower;
    layer "serve.queue_p50_ms" "ms" Lower;
    layer "serve.queue_p99_ms" "ms" Lower;
    layer "serve.run_hit_p50_ms" "ms" Lower;
    layer "serve.run_miss_p50_ms" "ms" Lower;
    layer "serve.cache_hit_ratio" "frac" Higher;
    layer "serve.cache_compiles" "count" Lower;
    layer "serve.rejected" "count" Lower;
    layer "serve.retried" "count" Lower;
    layer "serve.journal_bytes" "B" Lower;
    layer "serve.journal_replay_mb_per_s" "MB/s" Higher;
  ]

let better_string = function Lower -> "lower" | Higher -> "higher"
