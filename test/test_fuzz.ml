(* Tests for the differential fuzzing subsystem itself: the generator's
   well-typedness-by-construction guarantee, determinism of the
   seed → model mapping, the shrinker's contract, the counterexample
   dumping of the runner, and a small smoke batch through the full
   oracle (every evaluator and scheduling strategy, bitwise). *)

module Gen = Om_fuzz.Gen
module Oracle = Om_fuzz.Oracle
module Shrink = Om_fuzz.Shrink
module Runner = Om_fuzz.Runner
module A = Om_lang.Ast

let rng seed = Random.State.make [| seed |]

(* ---- generator ---- *)

let test_gen_deterministic () =
  for seed = 0 to 9 do
    Alcotest.(check string)
      (Printf.sprintf "seed %d reproducible" seed)
      (Gen.source (rng seed)) (Gen.source (rng seed))
  done;
  Alcotest.(check bool)
    "different seeds differ" true
    (Gen.source (rng 0) <> Gen.source (rng 1))

let prop_gen_well_typed =
  QCheck.Test.make ~name:"generated models flatten and typecheck"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let m = Gen.model (rng seed) in
      let f = Om_lang.Flatten.flatten m in
      Om_lang.Typecheck.check f;
      Om_lang.Flat_model.dim f > 0)

let prop_gen_parses =
  QCheck.Test.make ~name:"generated source reparses to equal source"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let src = Gen.source (rng seed) in
      Om_lang.Unparse.model (Om_lang.Parser.parse_model src) = src)

let test_stiff_model () =
  let f = Om_lang.Flatten.flatten (Gen.stiff_model ()) in
  Alcotest.(check int) "two states" 2 (Om_lang.Flat_model.dim f);
  Om_lang.Typecheck.check f

(* ---- shrinker ---- *)

let test_shrink_converges () =
  (* Predicate: the model still flattens to at least one state.  The
     greedy fixpoint must land on a model where no candidate still
     satisfies it — i.e. minimal for the predicate. *)
  let m = Gen.model (rng 7) in
  let pred m' =
    match Om_lang.Flatten.flatten m' with
    | f -> Om_lang.Flat_model.dim f >= 1
    | exception Om_lang.Flatten.Error _ -> false
  in
  Alcotest.(check bool) "predicate holds initially" true (pred m);
  let s = Shrink.shrink ~budget:2000 m ~predicate:pred in
  Alcotest.(check bool) "predicate preserved" true (pred s);
  Alcotest.(check bool)
    "no candidate still satisfies the predicate" true
    (not (List.exists pred (Shrink.candidates s)));
  (* Minimal for this predicate: one class, one state. *)
  Alcotest.(check int) "one class" 1 (List.length s.A.classes);
  Alcotest.(check int) "one instance" 1 (List.length s.A.instances);
  Alcotest.(check int) "one state" 1
    (Om_lang.Flat_model.dim (Om_lang.Flatten.flatten s))

let test_shrink_budget () =
  let m = Gen.model (rng 7) in
  let evals = ref 0 in
  let pred _ = incr evals; true in
  ignore (Shrink.shrink ~budget:5 m ~predicate:pred);
  Alcotest.(check bool)
    (Printf.sprintf "at most 5 evaluations (got %d)" !evals)
    true (!evals <= 5)

let test_shrink_rejects_raising_predicate () =
  (* A predicate that raises counts as false, so shrinking terminates and
     returns the input unchanged. *)
  let m = Gen.model (rng 3) in
  let s = Shrink.shrink m ~predicate:(fun _ -> failwith "boom") in
  Alcotest.(check string) "input returned" (Om_lang.Unparse.model m)
    (Om_lang.Unparse.model s)

(* ---- runner ---- *)

let test_runner_green_batch () =
  (* The full oracle over a deterministic batch: every invariant on every
     strategy pair must hold.  This is the in-tree version of
     [omc fuzz]; CI additionally runs 200 cases through the CLI. *)
  let summary = Runner.run ~cases:15 ~seed:42 () in
  (match summary.failures with
  | [] -> ()
  | fl :: _ ->
      Alcotest.failf "case %d violated: %a" fl.index
        (Fmt.list ~sep:Fmt.comma Oracle.pp_violation)
        fl.violations);
  Alcotest.(check int) "all cases ran" 15 summary.cases

let test_runner_dumps_counterexamples () =
  (* Inject an always-failing check and verify shrinking + dump-to-disk:
     the report, original and shrunk sources must all land in [out_dir]. *)
  let dir =
    (* A fresh unique path: claim a temp file name, then reuse it as the
       dump directory. *)
    let f = Filename.temp_file "om_fuzz_test" "" in
    Sys.remove f;
    f
  in
  let check m =
    let dim =
      match Om_lang.Flatten.flatten m with
      | f -> Om_lang.Flat_model.dim f
      | exception Om_lang.Flatten.Error _ -> 0
    in
    {
      Oracle.dim;
      n_tasks = 0;
      split = false;
      lsoda_sequential_only = false;
      sweep_refused = false;
      discarded = None;
      violations = [ { Oracle.invariant = "synthetic"; detail = "always" } ];
    }
  in
  let summary = Runner.run ~out_dir:dir ~check ~cases:2 ~seed:1 () in
  Alcotest.(check int) "both cases fail" 2 (List.length summary.failures);
  List.iter
    (fun suffix ->
      List.iter
        (fun i ->
          let path = Filename.concat dir (Printf.sprintf "case%04d-%s" i suffix) in
          Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
          if Filename.check_suffix path ".om" then
            (* Dumped sources must be valid model text. *)
            ignore
              (Om_lang.Parser.parse_model
                 (In_channel.with_open_text path In_channel.input_all)))
        [ 0; 1 ])
    [ "original.om"; "shrunk.om"; "report.txt" ];
  (* The always-failing predicate shrinks all the way to a one-class,
     one-instance skeleton. *)
  (match summary.failures with
  | fl :: _ ->
      Alcotest.(check bool) "shrunk to <= 1 class" true
        (List.length fl.shrunk.A.classes <= 1)
  | [] -> ());
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir

let test_runner_deterministic () =
  let s1 = Runner.run ~cases:5 ~seed:9 () in
  let s2 = Runner.run ~cases:5 ~seed:9 () in
  Alcotest.(check int) "same discards" s1.discarded s2.discarded;
  Alcotest.(check int) "same dims" s1.dim_total s2.dim_total;
  Alcotest.(check int) "same tasks" s1.task_total s2.task_total

(* ---- oracle ---- *)

let test_oracle_reports_all_violations () =
  (* A hand-written ill-typed model: state without an equation.  The
     oracle must report it as a flatten/typecheck violation rather than
     raise. *)
  let src = "model M;\nclass C\n  variable x init 1.0;\nend;\ninstance c of C;\n" in
  let m = Om_lang.Parser.parse_model src in
  let res = Oracle.check m in
  Alcotest.(check bool) "some violation" true (res.violations <> [])

let () =
  Alcotest.run "om_fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "stiff model" `Quick test_stiff_model;
          Qcheck_seed.to_alcotest prop_gen_well_typed;
          Qcheck_seed.to_alcotest prop_gen_parses;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "converges to minimal" `Quick
            test_shrink_converges;
          Alcotest.test_case "budget respected" `Quick test_shrink_budget;
          Alcotest.test_case "raising predicate" `Quick
            test_shrink_rejects_raising_predicate;
        ] );
      ( "runner",
        [
          Alcotest.test_case "green batch" `Slow test_runner_green_batch;
          Alcotest.test_case "counterexample dumps" `Quick
            test_runner_dumps_counterexamples;
          Alcotest.test_case "deterministic" `Slow test_runner_deterministic;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "ill-typed model" `Quick
            test_oracle_reports_all_violations;
        ] );
    ]
