(* e2e — the repository's end-to-end benchmark.  Run from the root of a
   checkout with omc built (bench/e2e/run.sh builds both).

     e2e run --workload NAME --seed N [--seconds S] [--trace 0|1]
       One workload in this process.  Prints a summary on stderr and, as
       the last line of stdout, the result record
       {"correct","attempted","failed","metrics"}: the end-to-end metrics,
       or with --trace 1 the per-layer metrics (and a Chrome trace in
       bench/e2e/_run, or at --trace-out FILE).  Exits 1 when a check
       failed.

     e2e all --seed N [--repeats R] [--seconds S] [--out FILE] [--trace FILE]
       Every workload, each run in its own process, R times (default 3)
       with the workloads interleaved and seeds N, N+1, ...  Prints each
       metric's median and quartiles; --out keeps every run for
       [compare]; --trace adds one traced run per workload and merges
       their Chrome traces into FILE.

     e2e compare BASE.json NEW.json
       Two [all --out] files, metric by metric against the bounds.

     e2e smoke --omc EXE --expected DIR --run-dir DIR
       Every workload at about 1/20 scale, traced and untraced, all
       checks on, in one process: what [dune runtest] runs.

     e2e kernel N
       Time N calibration kernels after an untimed one, one time in
       seconds per line: the kernels a workload with child processes
       times in a child. *)

module Json = Om_serve.Json

let omc = "_build/default/bin/omc.exe"
let expected = "bench/e2e/expected"
let run_dir = "bench/e2e/_run"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let usage () =
  prerr_endline
    "usage: e2e (run --workload NAME --seed N [--seconds S] [--trace 0|1] \
     [--trace-out FILE] | all --seed N [--repeats R] [--seconds S] [--out \
     FILE] [--trace FILE] | compare BASE.json NEW.json | smoke --omc EXE \
     --expected DIR --run-dir DIR)";
  exit 2

(* --key value pairs after the subcommand. *)
let options args =
  let rec go acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let opt opts key default = Option.value ~default (List.assoc_opt key opts)

let number of_string opts key default =
  match List.assoc_opt key opts with
  | None -> default
  | Some v -> ( match of_string v with Some x -> x | None -> usage ())

let metric_value record name =
  Option.bind (Json.member record "metrics") (fun m ->
      Option.bind (Json.member m name) (fun v ->
          Option.bind (Json.member v "value") Json.to_float))

let int_field record k = Option.value ~default:0 (Option.bind (Json.member record k) Json.to_int)
let correct record = Json.member record "correct" = Some (Json.Bool true)

let summarise oc name record =
  Printf.fprintf oc "%s: correct=%b attempted=%d failed=%d\n" name (correct record)
    (int_field record "attempted") (int_field record "failed");
  match Json.member record "metrics" with
  | Some (Json.Obj ms) ->
      List.iter
        (fun (k, v) ->
          Printf.fprintf oc "  %-32s %14.6g %s\n" k
            (Option.value ~default:nan (metric_value record k))
            (Option.value ~default:"" (Option.bind (Json.member v "unit") Json.to_str)))
        ms
  | _ -> ()

(* ---- run ---- *)

let run_cmd opts =
  let workload = opt opts "workload" "" in
  let pid =
    match List.find_index (( = ) workload) Workloads.names with
    | Some i -> i + 1
    | None ->
        Printf.eprintf "e2e: unknown workload %S (one of %s)\n" workload
          (String.concat ", " Workloads.names);
        exit 2
  in
  let trace = match opt opts "trace" "0" with "0" -> false | "1" -> true | _ -> usage () in
  let ctx =
    { Harness.seed = number int_of_string_opt opts "seed" 1;
      seconds = number float_of_string_opt opts "seconds" 15.;
      trace; smoke = false; omc; run_dir; expected }
  in
  if not (Sys.file_exists omc) then begin
    Printf.eprintf "e2e: %s not found; run from a checkout's root after dune build\n" omc;
    exit 2
  end;
  mkdir_p run_dir;
  let record = Workloads.run ctx workload in
  if trace then begin
    let path =
      opt opts "trace-out"
        (Filename.concat run_dir (Printf.sprintf "trace-%s-%d.json" workload ctx.seed))
    in
    Span.write_chrome path (Span.events ~pid ~process:workload);
    Printf.eprintf "e2e: trace written to %s\n" path
  end;
  summarise stderr workload record;
  print_endline (Json.to_string record);
  exit (if correct record then 0 else 1)

(* ---- all ---- *)

(* Run one workload in a child process; its result record, or a failed
   one when the child printed none. *)
let child args =
  let argv = Array.of_list (Sys.executable_name :: "run" :: args) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  close_in ic;
  ignore (Unix.waitpid [] pid);
  match Json.of_string !last with
  | record -> record
  | exception Json.Error _ ->
      Json.Obj [ ("correct", Json.Bool false); ("attempted", Json.Int 1);
                 ("failed", Json.Int 1); ("metrics", Json.Obj []) ]

let print_table title runs vocab =
  Printf.printf "\n%s\n%-18s %-30s %-6s %14s %14s %14s %4s\n" title "workload" "metric"
    "unit" "median" "q1" "q3" "n";
  List.iter
    (fun w ->
      let rs = List.filter_map (fun (w', r) -> if w' = w then Some r else None) runs in
      List.iter
        (fun (m : Vocab.metric) ->
          match List.filter_map (fun r -> metric_value r m.name) rs with
          | [] -> ()
          | xs ->
              let q1, q3 = Stat.quartiles xs in
              Printf.printf "%-18s %-30s %-6s %14.6g %14.6g %14.6g %4d\n" w m.name m.unit_
                (Stat.median xs) q1 q3 (List.length xs))
        vocab;
      let sum k = List.fold_left (fun a r -> a + int_field r k) 0 rs in
      Printf.printf "%-18s %-30s %-6s %14.6g %14s %14s %4d\n" w "error_rate" "frac"
        (float_of_int (sum "failed") /. float_of_int (max 1 (sum "attempted")))
        "" "" (List.length rs))
    Workloads.names

let all_cmd opts =
  let seed = number int_of_string_opt opts "seed" 1 in
  let repeats = number int_of_string_opt opts "repeats" 3 in
  let seconds = Printf.sprintf "%g" (number float_of_string_opt opts "seconds" 15.) in
  let runs =
    List.concat_map
      (fun r ->
        List.map
          (fun w ->
            Printf.eprintf "e2e: %s, seed %d\n%!" w (seed + r);
            let s = string_of_int (seed + r) in
            (w, seed + r, child [ "--workload"; w; "--seed"; s; "--seconds"; seconds ]))
          Workloads.names)
      (List.init repeats Fun.id)
  in
  print_table
    (Printf.sprintf "end-to-end metrics, %d run(s) of %ss per workload" repeats seconds)
    (List.map (fun (w, _, r) -> (w, r)) runs)
    Vocab.end_to_end;
  Option.iter
    (fun path ->
      let run (w, s, r) = Json.Obj [ ("workload", Json.Str w); ("seed", Json.Int s); ("result", r) ] in
      Harness.write_file path
        (Json.to_string (Json.Obj [ ("runs", Json.Arr (List.map run runs)) ]) ^ "\n"))
    (List.assoc_opt "out" opts);
  let traced =
    match List.assoc_opt "trace" opts with
    | None -> []
    | Some path ->
        mkdir_p run_dir;
        let traced =
          List.map
            (fun w ->
              let out = Filename.concat run_dir ("trace-all-" ^ w ^ ".json") in
              let record =
                child [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; seconds;
                        "--trace"; "1"; "--trace-out"; out ]
              in
              let events =
                match Json.member (Json.of_string (Harness.read_file out)) "traceEvents" with
                | Some (Json.Arr evs) -> evs
                | _ | (exception (Json.Error _ | Sys_error _)) -> []
              in
              (w, record, events))
            Workloads.names
        in
        Span.write_chrome path (List.concat_map (fun (_, _, evs) -> evs) traced);
        print_table "per-layer metrics, one traced run per workload"
          (List.map (fun (w, r, _) -> (w, r)) traced)
          Vocab.per_layer;
        Printf.printf "\nChrome trace of every workload written to %s\n" path;
        List.map (fun (_, r, _) -> r) traced
  in
  let records = List.map (fun (_, _, r) -> r) runs @ traced in
  exit (if List.for_all correct records then 0 else 1)

(* ---- compare ---- *)

let load_runs path =
  match Option.bind (Json.member (Json.of_string (Harness.read_file path)) "runs") Json.to_list with
  | Some rs ->
      List.filter_map
        (fun r ->
          match (Option.bind (Json.member r "workload") Json.to_str, Json.member r "result") with
          | Some w, Some res -> Some (w, res)
          | _ -> None)
        rs
  | None ->
      Printf.eprintf "e2e: %s is not an [e2e all --out] file\n" path;
      exit 2

(* Each workload and end-to-end metric in its own row.  A median worse
   by more than the bound is a "regression"; a "gain" needs at least ten
   pairs (base run i against new run i), the new side winning nine
   tenths of them, and a median gap wider than the base IQR.  Otherwise
   a metric whose spread (IQR over median) on either side exceeds its
   bound is "unresolved", unless every new run beats every base run. *)
let compare_cmd base_path new_path =
  let base = load_runs base_path and next = load_runs new_path in
  let regressions = ref 0 in
  Printf.printf "%-18s %-14s %12s %25s %12s %8s %7s  %s\n" "workload" "metric" "base"
    "base [q1, q3]" "new" "change" "wins" "verdict";
  List.iter
    (fun w ->
      let values runs name =
        List.filter_map (fun (w', r) -> if w' = w then metric_value r name else None) runs
      in
      List.iter
        (fun (m : Vocab.metric) ->
          let b = values base m.name and n = values next m.name in
          if b <> [] && n <> [] then begin
            let bound = Option.get m.bound in
            let beats x y = match m.better with Vocab.Lower -> y < x | Vocab.Higher -> y > x in
            let mb = Stat.median b and mn = Stat.median n in
            let q1, q3 = Stat.quartiles b in
            let change = (mn -. mb) /. mb in
            let worse = match m.better with Vocab.Lower -> change | Vocab.Higher -> -.change in
            let npairs = min (List.length b) (List.length n) in
            let wins =
              List.length
                (List.filteri (fun i y -> i < npairs && beats (List.nth b i) y) n)
            in
            let verdict =
              if worse > bound then (incr regressions; "regression")
              else if npairs >= 10 && 10 * wins >= 9 * npairs && Float.abs (mn -. mb) > q3 -. q1
              then "gain"
              else if Float.max (Stat.rel_iqr b) (Stat.rel_iqr n) > bound
                      && not (List.for_all (fun y -> List.for_all (fun x -> beats x y) b) n)
              then "unresolved"
              else "within bound"
            in
            Printf.printf "%-18s %-14s %12.5g %25s %12.5g %+7.1f%% %3d/%-3d  %s\n" w m.name mb
              (Printf.sprintf "[%.5g, %.5g]" q1 q3) mn (100. *. change) wins npairs verdict
          end)
        Vocab.end_to_end)
    Workloads.names;
  exit (if !regressions > 0 then 1 else 0)

(* ---- smoke ---- *)

let smoke_cmd opts =
  let run_dir = opt opts "run-dir" (Filename.concat run_dir "smoke") in
  mkdir_p run_dir;
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let ctx =
            { Harness.seed = 7; seconds = 0.2; trace; smoke = true;
              omc = opt opts "omc" omc; run_dir; expected = opt opts "expected" expected }
          in
          let record = Workloads.run ctx w in
          let complete =
            List.for_all
              (fun (m : Vocab.metric) -> metric_value record m.name <> None)
              (if trace then Vocab.per_layer else Vocab.end_to_end)
          in
          let passed = correct record && complete in
          if not passed then begin
            ok := false;
            summarise stderr w record
          end;
          Printf.printf "smoke %-18s %-8s %s\n%!" w
            (if trace then "traced" else "untraced")
            (if passed then "ok" else "FAILED"))
        [ false; true ])
    Workloads.names;
  exit (if !ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [ _; "kernel"; n ] ->
      Calib.kernel ();
      for _ = 1 to Option.value ~default:1 (int_of_string_opt n) do
        Printf.printf "%.17g\n" (Calib.time_kernel ())
      done
  | _ :: "run" :: rest -> run_cmd (options rest)
  | _ :: "all" :: rest -> all_cmd (options rest)
  | [ _; "compare"; base; next ] -> compare_cmd base next
  | _ :: "smoke" :: rest -> smoke_cmd (options rest)
  | _ -> usage ()
