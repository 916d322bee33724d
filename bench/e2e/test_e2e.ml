(* Unit tests of the benchmark's statistics and seeded generators, and a
   check that BENCHMARK.json (path in argv.(1)) lists exactly the
   harness's metric vocabulary. *)

module Json = Om_serve.Json

let close = Alcotest.float 1e-12

let percentile () =
  let xs = [ 40.; 15.; 50.; 20.; 35. ] in
  Alcotest.check close "p0 is the minimum" 15. (Stat.percentile 0. xs);
  Alcotest.check close "p30" 20. (Stat.percentile 30. xs);
  Alcotest.check close "p40 (rank exactly 2)" 20. (Stat.percentile 40. xs);
  Alcotest.check close "p50" 35. (Stat.percentile 50. xs);
  Alcotest.check close "p100 is the maximum" 50. (Stat.percentile 100. xs);
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p90 of 1..100" 90. (Stat.percentile 90. hundred);
  Alcotest.check close "p99 of 1..100" 99. (Stat.percentile 99. hundred)

let median () =
  Alcotest.check close "odd" 3. (Stat.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even averages the middle pair" 2.5 (Stat.median [ 4.; 1.; 3.; 2. ])

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let quartiles () =
  let pair = Alcotest.(pair close close) in
  Alcotest.check pair "1..10" (2.75, 8.25)
    (Stat.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check pair "1..4" (1.25, 3.75) (Stat.quartiles [ 4.; 2.; 3.; 1. ]);
  Alcotest.check pair "two samples extrapolate" (0.75, 2.25) (Stat.quartiles [ 1.; 2. ]);
  Alcotest.check close "relative IQR of 1..10" (5.5 /. 5.5)
    (Stat.rel_iqr (List.init 10 (fun i -> float_of_int (i + 1))))

let geomean () =
  Alcotest.check close "1, 4, 16" 4. (Stat.geomean [ 1.; 4.; 16. ]);
  Alcotest.check close "constant" 2.5 (Stat.geomean [ 2.5; 2.5 ]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stat.geomean: non-positive sample")
    (fun () -> ignore (Stat.geomean [ 1.; 0. ]))

let poisson () =
  let draw seed = Draws.poisson_arrivals (Draws.stream ~seed ~salt:"t") ~rate:1000. ~duration:10. in
  let a = draw 3 and b = draw 3 and c = draw 4 in
  Alcotest.(check (array (float 0.))) "same seed, same arrivals" a b;
  Alcotest.(check bool) "another seed, other arrivals" true (a <> c);
  Alcotest.(check bool) "sorted, inside the window" true
    (Array.for_all (fun t -> t >= 0. && t < 10.) a
    && Array.for_all Fun.id (Array.init (Array.length a - 1) (fun i -> a.(i) <= a.(i + 1))));
  let n = float_of_int (Array.length a) in
  Alcotest.(check bool) "about rate * duration arrivals" true (n > 9500. && n < 10500.)

let skewed () =
  let draws seed = let rng = Draws.stream ~seed ~salt:"u3" in
    List.init 20000 (fun _ -> Draws.skewed_index rng 256) in
  let a = draws 5 in
  Alcotest.(check (list int)) "same seed, same draws" a (draws 5);
  Alcotest.(check bool) "in range" true (List.for_all (fun i -> i >= 0 && i < 256) a);
  (* P(index = 0) = P(u^3 < 1/256) = 256^(-1/3) ~ 0.157 *)
  let zeros = float_of_int (List.length (List.filter (( = ) 0) a)) /. 20000. in
  Alcotest.(check bool) "index 0 drawn ~15.7% of the time" true (zeros > 0.145 && zeros < 0.17)

let vocabulary path () =
  let doc = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let listed key =
    match Option.bind (Json.member doc key) Json.to_list with
    | Some ms ->
        List.map
          (fun m ->
            let s k = Option.bind (Json.member m k) Json.to_str in
            ( Option.get (s "name"),
              Option.get (s "unit"),
              s "better",
              Option.bind (Json.member m "bound") Json.to_float ))
          ms
    | None -> Alcotest.failf "%s has no %s list" path key
  in
  let ours ms =
    List.map
      (fun (m : Vocab.metric) ->
        (m.name, m.unit_, Some (Vocab.better_string m.better), m.bound))
      ms
  in
  let t = Alcotest.(list (pair string (pair string (pair (option string) (option (float 0.)))))) in
  let flat = List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) in
  Alcotest.check t "end_to_end" (flat (ours Vocab.end_to_end)) (flat (listed "end_to_end"));
  Alcotest.check t "per_layer" (flat (ours Vocab.per_layer)) (flat (listed "per_layer"));
  let workloads =
    match Option.bind (Json.member doc "workloads") Json.to_list with
    | Some ws -> List.filter_map (fun w -> Option.bind (Json.member w "name") Json.to_str) ws
    | None -> []
  in
  Alcotest.(check (list string)) "workloads" Workloads.names workloads

let () =
  let benchmark = Sys.argv.(1) in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "e2e"
    [
      ( "stat",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick percentile;
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "quartiles match Python" `Quick quartiles;
          Alcotest.test_case "geometric mean" `Quick geomean;
        ] );
      ( "draws",
        [
          Alcotest.test_case "seeded Poisson arrivals" `Quick poisson;
          Alcotest.test_case "seeded u^3 skew" `Quick skewed;
        ] );
      ("benchmark", [ Alcotest.test_case "BENCHMARK.json vocabulary" `Quick (vocabulary benchmark) ]);
    ]
