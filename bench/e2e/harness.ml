(* What every workload shares: the run context, the tally of attempted
   and failed operations and checks, the closed loop and the repeated
   set-up with their calibration kernels, and the process's own peak
   memory. *)

let now = Om_parallel.Monotonic.now

type ctx = {
  seed : int;
  seconds : float;  (** measurement window *)
  trace : bool;
  smoke : bool;  (** ~1/20 scale, every check still on *)
  omc : string;  (** path to the built omc executable *)
  run_dir : string;  (** where a run may write its scratch files *)
  expected : string;  (** directory of pinned values *)
}

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* Count one operation or check; a failure is reported on stderr. *)
let check t ok fmt =
  Printf.ksprintf
    (fun msg ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        prerr_endline ("e2e: check failed: " ^ msg)
      end)
    fmt

type outcome = {
  tally : tally;
  metrics : (string * float) list;
      (** end-to-end metrics untraced, per-layer metrics traced *)
}

(* Peak resident set (VmHWM) of a process, in MB; [None] once it has
   gone. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> Some (float_of_int kb /. 1024.))
                else scan ()
          in
          scan ())

let self_peak_rss_mb () = Option.value ~default:0. (vm_hwm_mb "self")

type child = {
  output : string;  (** everything it wrote to stdout *)
  status : Unix.process_status;
  wall : float;  (** seconds from spawn to exit *)
  rss_mb : float;  (** largest VmHWM seen *)
}

(* Run [argv] as a child process, reading its stdout while polling its
   VmHWM every 5 ms, and wait for it. *)
let spawn argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let spid = string_of_int pid in
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rss = ref 0. in
  let poll () =
    match vm_hwm_mb spid with Some m -> rss := Float.max !rss m | None -> ()
  in
  let rec pump () =
    match Unix.select [ rd ] [] [] 0.005 with
    | [], _, _ -> poll (); pump ()
    | _ ->
        poll ();
        let n = Unix.read rd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          pump ()
        end
  in
  pump ();
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  { output = Buffer.contents buf; status; wall = now () -. t0; rss_mb = !rss }

(* A source of calibration kernel times.  [in_process] times one in this
   process.  [in_child] times three in a child process ([e2e kernel 3]),
   spawned and waited for like a workload's own children: a child may
   run on another vCPU than this process, and the vCPUs of a shared host
   slow down independently, so a kernel timed here would not measure the
   vCPU the workload's child ran on. *)
let in_process () = [ Calib.time_kernel () ]

let in_child () =
  List.filter_map float_of_string_opt
    (String.split_on_char '\n'
       (spawn [| Sys.executable_name; "kernel"; "3" |]).output)

(* Calibration kernels are timed at most this often during a run. *)
let kernel_every = 0.2

(* Time calibration kernels if [kernel_every] has passed since [last];
   [last] becomes the time they ended. *)
let maybe_kernel ?(calib = in_process) kernels last =
  if now () -. !last >= kernel_every then begin
    kernels := calib () @ !kernels;
    last := now ()
  end

(* Run [op] back to back — a closed loop with one client — until
   [seconds] have passed and at least [min_ops] ran.  Under tracing, odd
   ops are traced and even ones not, so the two can be compared in one
   run.  Returns per-op latencies (seconds) split by tracing, the gaps
   between one op's end and the next one's start, the calibration kernel
   times taken between ops (outside both), and this process's peak RSS
   when the loop ended, before any check after it. *)
type loop = { untraced : float list; traced : float list; gaps : float list;
              kernels : float list; ops : int; rss_mb : float }

let closed_loop ctx ?(min_ops = if ctx.trace then 2 else 1) ?calib op =
  let start = now () in
  let untraced = ref [] and traced = ref [] and gaps = ref [] and kernels = ref [] in
  let prev_end = ref start and k = ref 0 and last_kernel = ref neg_infinity in
  while !k < min_ops || now () -. start < ctx.seconds do
    maybe_kernel ?calib kernels last_kernel;
    prev_end := Float.max !prev_end !last_kernel;
    let traced_op = ctx.trace && !k land 1 = 1 in
    Span.enabled := traced_op;
    let t0 = now () in
    gaps := (t0 -. !prev_end) :: !gaps;
    Span.with_ ~req:(Printf.sprintf "op-%d" !k) "bench.op" (fun () -> op !k);
    let t1 = now () in
    Span.enabled := false;
    if traced_op then traced := (t1 -. t0) :: !traced
    else untraced := (t1 -. t0) :: !untraced;
    prev_end := t1;
    incr k
  done;
  { untraced = !untraced; traced = !traced; gaps = !gaps; kernels = !kernels;
    ops = !k; rss_mb = self_peak_rss_mb () }

(* A workload's set-up, timed once before the measured window and
   repeated after it.  Only the first result is used.  The repeats come
   after the window because each leaves garbage behind and an OCaml 5.1
   heap never shrinks: run before it, they would set the peak RSS
   (README.md, "End-to-end metrics"). *)
type 'a setup = {
  f : unit -> 'a;
  teardown : 'a -> unit;  (** disposes of each repeat's result, untimed *)
  calib : unit -> float list;
  times : float list;
  kernels : float list;
}

let timed_setup calib f =
  let kernels = calib () in
  let t0 = now () in
  let r = f () in
  (r, now () -. t0, kernels)

(* Set up once, untraced, with calibration kernels timed before. *)
let setup ?(teardown = ignore) ?(calib = in_process) f =
  let r, dt, kernels = timed_setup calib f in
  (r, { f; teardown; calib; times = [ dt ]; kernels })

(* Repeat the set-up until it has run at least five times and for at
   least a second (at most 50 times; twice in a smoke run).  The median
   set-up time, scaled by the median kernel time. *)
let setup_s ctx s =
  let min_times, min_spent = if ctx.smoke then (2, 0.) else (5, 1.) in
  let rec go times kernels =
    let n = List.length times in
    if n >= min_times && (Stat.sum times >= min_spent || n >= 50) then
      Calib.scale ~kernel_s:(Stat.median kernels) (Stat.median times)
    else begin
      let r, dt, k = timed_setup s.calib s.f in
      s.teardown r;
      go (dt :: times) (k @ kernels)
    end
  in
  go s.times s.kernels

let ms x = x *. 1000.

(* The fast decile.  Other tenants of a shared machine slow whole
   stretches of a run; the fast decile of an op's latencies is the op's
   own cost, and it repeats across runs where the median does not
   (README.md, "Estimators").  The calibration kernel's fast decile is
   the host's speed over the same stretches. *)
let fast_decile xs = Stat.percentile 10. xs

(* Op time of a closed-loop workload, scaled to the reference host. *)
let op_time (l : loop) latencies =
  Calib.scale ~kernel_s:(fast_decile l.kernels) (fast_decile latencies)

(* The end-to-end metrics of a closed-loop workload. *)
let closed_e2e ~setup_s ~loop ~latencies ~rss =
  [ ("setup_s", setup_s); ("op_time_ms", ms (op_time loop latencies)); ("peak_rss_mb", rss) ]

(* The harness-level per-layer metrics of a traced closed-loop run. *)
let trace_metrics (l : loop) =
  let overhead =
    match (l.traced, l.untraced) with
    | _ :: _, _ :: _ -> (Stat.median l.traced /. Stat.median l.untraced) -. 1.
    | _ -> 0.
  in
  [
    ("calib.kernel_ms", ms (fast_decile l.kernels));
    ("trace.wall_s", Span.traced_wall ());
    ("trace.ops", float_of_int (List.length l.traced));
    ("trace.overhead_frac", overhead);
    ("trace.coverage", Span.coverage ());
    ("loadgen.offered", float_of_int l.ops);
    ("loadgen.completed", float_of_int l.ops);
    ("loadgen.lag_p99_ms", ms (Stat.percentile 99. l.gaps));
    ( "loadgen.closed_per_s",
      float_of_int l.ops /. (Stat.sum l.untraced +. Stat.sum l.traced +. Stat.sum l.gaps) );
    ( "loadgen.p90_over_p50",
      Stat.percentile 90. l.untraced /. Stat.median l.untraced );
  ]

(* Each layer's self time as a share of the traced wall time, for every
   span name the workloads record.  The self time of [ode.integrate] and
   [ensemble.rk4] is the solver's own bookkeeping: their RHS and
   Jacobian callbacks are charged to the [expr.*] and [ensemble.brhs]
   leaves. *)
let span_fracs () =
  List.map
    (fun (metric, span) -> (metric, Span.frac span))
    [
      ("lang.parse_frac", "lang.parse");
      ("lang.flatten_frac", "lang.flatten");
      ("lang.typecheck_frac", "lang.typecheck");
      ("graph.analyse_frac", "graph.analyse");
      ("codegen.assign_frac", "codegen.assign");
      ("codegen.partition_frac", "codegen.partition");
      ("codegen.backend_frac", "codegen.backend");
      ("expr.of_equations_frac", "expr.of_equations");
      ("expr.rhs_frac", "expr.rhs");
      ("expr.jac_frac", "expr.jac");
      ("ode.solver_self_frac", "ode.integrate");
      ("ensemble.create_frac", "ensemble.create");
      ("ensemble.brhs_frac", "ensemble.brhs");
      ("ensemble.stepper_self_frac", "ensemble.rk4");
      ("serve.queue_frac", "serve.queue");
      ("serve.run_frac", "serve.run");
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Pinned values: a flat JSON object of numbers in [expected/NAME.json]. *)
let pins ctx name =
  let path = Filename.concat ctx.expected (name ^ ".json") in
  match Om_serve.Json.of_string (read_file path) with
  | Om_serve.Json.Obj fields ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f)) (Om_serve.Json.to_float v))
        fields
  | _ -> failwith (path ^ ": not a JSON object")

(* [actual] within a relative [tol] of the pinned value. *)
let near_pin t pins key ~tol actual =
  match List.assoc_opt key pins with
  | None -> check t false "no pinned value %s (actual %g)" key actual
  | Some p ->
      check t
        (Float.abs (actual -. p) <= tol *. Float.abs p)
        "%s = %g, pinned %g (tolerance %g)" key actual p tol

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b
