(* Tests for the runtime guard layer: the typed error taxonomy, the
   deterministic fault plan, and the allocation-free finite guard. *)

module E = Om_guard.Om_error
module FP = Om_guard.Fault_plan
module FG = Om_guard.Finite_guard

(* ---------- error taxonomy ---------- *)

let test_error_strings () =
  let check what expect e =
    Alcotest.(check string) what expect (E.to_string e)
  in
  check "nonfinite nan"
    "non-finite RHS output nan in der(b.x) (state slot 3) at t=0.5"
    (E.Nonfinite_output
       { slot = 3; equation = "der(b.x)"; value = Float.nan; time = 0.5 });
  check "nonfinite inf"
    "non-finite RHS output inf in der(y) (state slot 0) at t=1"
    (E.Nonfinite_output
       { slot = 0; equation = "der(y)"; value = Float.infinity; time = 1. });
  check "nonfinite -inf"
    "non-finite RHS output -inf in der(y) (state slot 0) at t=1"
    (E.Nonfinite_output
       { slot = 0; equation = "der(y)"; value = Float.neg_infinity; time = 1. });
  check "stall" "worker 2 stalled in round 7 (waited 0.0031s)"
    (E.Worker_stall { worker = 2; round = 7; waited_s = 0.0031 });
  check "spawn" "failed to spawn worker domain 1 of 4: no threads"
    (E.Spawn_failure { worker = 1; nworkers = 4; reason = "no threads" });
  check "step"
    "lsoda step failed at t=0.25 (h=1e-06) after 8 retries: poisoned"
    (E.Step_failure
       { solver = "lsoda"; time = 0.25; step = 1e-6; retries = 8;
         reason = "poisoned" })

let test_error_printexc () =
  (* The registered printer makes uncaught guard errors readable. *)
  let e = E.Newton_failure { time = 0.1; iterations = 4 } in
  Alcotest.(check string) "printexc uses the registered printer"
    "Om_guard.Om_error.Error: Newton iteration failed to converge at t=0.1 \
     (4 iters)"
    (Printexc.to_string (E.Error e))

(* A tiny substring helper so the test file has no extra deps. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_degradation_pp () =
  let d =
    {
      E.at_round = 5;
      worker = 1;
      remaining = 2;
      cause = E.Worker_stall { worker = 1; round = 5; waited_s = 0.002 };
    }
  in
  Alcotest.(check string) "degradation to fewer workers"
    "round 5: dropped worker 1 -> 2 live worker(s) (worker 1 stalled in \
     round 5 (waited 0.0020s))"
    (Fmt.str "%a" E.pp_degradation d);
  let seq = { d with remaining = 0 } in
  Alcotest.(check bool) "degradation to sequential" true
    (contains (Fmt.str "%a" E.pp_degradation seq) "-> sequential");
  let advisory = { d with worker = -1; remaining = 1 } in
  Alcotest.(check string) "advisory record drops no worker"
    "round 5: no worker dropped, 1 live worker(s) (worker 1 stalled in \
     round 5 (waited 0.0020s))"
    (Fmt.str "%a" E.pp_degradation advisory)

(* ---------- fault plan ---------- *)

let test_plan_fire_once () =
  let plan = FP.make [ FP.Nan_task { task = 2; round = 3 } ] in
  Alcotest.(check int) "nothing fired yet" 0 (FP.injected plan);
  Alcotest.(check (float 0.)) "wrong round: no poison" 0.
    (FP.task_poison plan ~round:2 ~task:2);
  Alcotest.(check (float 0.)) "wrong task: no poison" 0.
    (FP.task_poison plan ~round:3 ~task:1);
  Alcotest.(check bool) "match: nan" true
    (Float.is_nan (FP.task_poison plan ~round:3 ~task:2));
  Alcotest.(check int) "fired once" 1 (FP.injected plan);
  Alcotest.(check (float 0.)) "fire-once: second query is clean" 0.
    (FP.task_poison plan ~round:3 ~task:2)

let test_plan_kinds () =
  let plan =
    FP.make
      [
        FP.Inf_task { task = 0; round = 1 };
        FP.Delay_worker { worker = 1; round = 4; micros = 2500 };
        FP.Fail_spawn { worker = 3 };
      ]
  in
  Alcotest.(check (float 0.)) "inf poison" Float.infinity
    (FP.task_poison plan ~round:1 ~task:0);
  Alcotest.(check int) "no delay off-coordinates" 0
    (FP.delay_micros plan ~round:4 ~worker:0);
  Alcotest.(check int) "delay fires" 2500
    (FP.delay_micros plan ~round:4 ~worker:1);
  Alcotest.(check int) "delay fire-once" 0
    (FP.delay_micros plan ~round:4 ~worker:1);
  Alcotest.(check bool) "spawn ok for other workers" false
    (FP.spawn_should_fail plan ~worker:0);
  Alcotest.(check bool) "spawn fails for worker 3" true
    (FP.spawn_should_fail plan ~worker:3);
  Alcotest.(check int) "all three fired" 3 (FP.injected plan)

let test_plan_seeded () =
  (* Reproducible from the seed, one recoverable fault, coordinates in
     range. *)
  let draw seed = FP.seeded ~seed ~ntasks:6 ~nworkers:3 ~max_round:20 in
  List.iter
    (fun seed ->
      let a = draw seed and b = draw seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d reproducible" seed)
        true
        (FP.faults a = FP.faults b);
      match FP.faults a with
      | [ FP.Nan_task { task; round } ] | [ FP.Inf_task { task; round } ] ->
          Alcotest.(check bool) "task in range" true (task >= 0 && task < 6);
          Alcotest.(check bool) "round in range" true
            (round >= 1 && round <= 20)
      | [ FP.Delay_worker { worker; round; micros } ] ->
          Alcotest.(check bool) "worker in range" true
            (worker >= 0 && worker < 3);
          Alcotest.(check bool) "round in range" true
            (round >= 1 && round <= 20);
          Alcotest.(check bool) "delay long enough to trip a deadline" true
            (micros >= 2000)
      | fs ->
          Alcotest.failf "seed %d drew an unexpected plan: %a" seed FP.pp
            (FP.make fs))
    [ 0; 1; 2; 17; 42; 1000 ]

(* ---------- finite guard ---------- *)

let test_guard_clean () =
  let g = FG.create ~names:[| "a"; "b"; "c" |] ~dim:3 in
  Alcotest.(check int) "dim" 3 (FG.dim g);
  FG.check g ~time:0. [| 1.; -2.5; 0. |];
  (* Slots past [dim] are ignored: solvers hand over scratch vectors. *)
  let g2 = FG.create ~names:[| "a" |] ~dim:1 in
  FG.check g2 ~time:0. [| 1.; Float.nan |]

let test_guard_attribution () =
  let g = FG.create ~names:[| "p.x"; "p.y" |] ~dim:2 in
  match FG.check g ~time:0.75 [| 1.; Float.nan |] with
  | () -> Alcotest.fail "NaN not detected"
  | exception E.Error (E.Nonfinite_output { slot; equation; value; time }) ->
      Alcotest.(check int) "slot" 1 slot;
      Alcotest.(check string) "equation" "der(p.y)" equation;
      Alcotest.(check bool) "value preserved" true (Float.is_nan value);
      Alcotest.(check (float 0.)) "time preserved" 0.75 time

let test_guard_first_slot_wins () =
  let g = FG.create ~names:[| "a"; "b" |] ~dim:2 in
  match FG.check g ~time:0. [| Float.infinity; Float.nan |] with
  | () -> Alcotest.fail "inf not detected"
  | exception E.Error (E.Nonfinite_output { slot; equation; _ }) ->
      Alcotest.(check int) "first bad slot reported" 0 slot;
      Alcotest.(check string) "equation" "der(a)" equation

let test_guard_invalid () =
  Alcotest.(check bool) "names shorter than dim rejected" true
    (match FG.create ~names:[| "a" |] ~dim:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_guard_zero_alloc () =
  (* The clean-path scan must not allocate: two loop sizes so fixed
     per-measurement costs cancel. *)
  let dim = 64 in
  let g =
    FG.create ~names:(Array.init dim (Printf.sprintf "s%d")) ~dim
  in
  let v = Array.init dim (fun i -> float_of_int i *. 0.5) in
  let words n =
    FG.check g ~time:0. v;
    let before = Gc.minor_words () in
    for _ = 1 to n do
      FG.check g ~time:0. v
    done;
    Gc.minor_words () -. before
  in
  let d1 = words 100 in
  let d2 = words 1100 in
  Alcotest.(check (float 0.)) "zero words per check" 0. (d2 -. d1)

let () =
  Alcotest.run "om_guard"
    [
      ( "om_error",
        [
          Alcotest.test_case "messages" `Quick test_error_strings;
          Alcotest.test_case "printexc" `Quick test_error_printexc;
          Alcotest.test_case "degradation pp" `Quick test_degradation_pp;
        ] );
      ( "fault_plan",
        [
          Alcotest.test_case "fire once" `Quick test_plan_fire_once;
          Alcotest.test_case "all kinds" `Quick test_plan_kinds;
          Alcotest.test_case "seeded" `Quick test_plan_seeded;
        ] );
      ( "finite_guard",
        [
          Alcotest.test_case "clean" `Quick test_guard_clean;
          Alcotest.test_case "attribution" `Quick test_guard_attribution;
          Alcotest.test_case "first slot wins" `Quick
            test_guard_first_slot_wins;
          Alcotest.test_case "invalid" `Quick test_guard_invalid;
          Alcotest.test_case "zero alloc" `Quick test_guard_zero_alloc;
        ] );
    ]
