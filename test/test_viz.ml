(* Tests for the visualization module: SVG structure, scaling sanity and
   the ASCII quick-look. *)

module Plot = Om_viz.Plot

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let wave =
  Plot.series "wave"
    (List.init 50 (fun i ->
         let x = float_of_int i /. 10. in
         (x, Float.sin x)))

let line = Plot.series "line" [ (0., 0.); (1., 2.); (2., 4.) ]

let test_svg_structure () =
  let svg = Plot.to_svg ~title:"t" ~x_label:"x" ~y_label:"y" [ wave; line ] in
  Alcotest.(check bool) "svg root" true (contains svg "<svg xmlns");
  Alcotest.(check bool) "closes" true (contains svg "</svg>");
  Alcotest.(check bool) "two polylines" true
    (List.length (String.split_on_char '\n' svg
                  |> List.filter (fun l -> contains l "<polyline"))
    = 2);
  Alcotest.(check bool) "legend labels" true
    (contains svg ">wave</text>" && contains svg ">line</text>");
  Alcotest.(check bool) "title" true (contains svg ">t</text>")

let test_svg_dimensions () =
  let svg = Plot.to_svg ~width:320 ~height:200 [ line ] in
  Alcotest.(check bool) "width attr" true (contains svg "width=\"320\"");
  Alcotest.(check bool) "height attr" true (contains svg "height=\"200\"")

let test_svg_rejects_empty () =
  Alcotest.check_raises "no points"
    (Invalid_argument "Plot.to_svg: need at least one series with two points")
    (fun () -> ignore (Plot.to_svg [ Plot.series "x" [ (1., 1.) ] ]))

let test_svg_points_inside_viewbox () =
  let svg = Plot.to_svg ~width:640 ~height:400 [ wave ] in
  (* Every polyline coordinate must lie inside the canvas. *)
  String.split_on_char '\n' svg
  |> List.filter (fun l -> contains l "<polyline")
  |> List.iter (fun l ->
         let start = String.index l '"' + 1 in
         let stop = String.index_from l start '"' in
         let pts = String.sub l start (stop - start) in
         String.split_on_char ' ' pts
         |> List.iter (fun p ->
                match String.split_on_char ',' p with
                | [ x; y ] ->
                    let x = float_of_string x and y = float_of_string y in
                    Alcotest.(check bool) "x in range" true
                      (x >= 0. && x <= 640.);
                    Alcotest.(check bool) "y in range" true
                      (y >= 0. && y <= 400.)
                | _ -> Alcotest.fail "bad point"))

let test_of_arrays () =
  let s = Plot.of_arrays "a" [| 1.; 2. |] [| 3.; 4. |] in
  Alcotest.(check int) "points" 2 (List.length s.points);
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Plot.of_arrays: length mismatch") (fun () ->
      ignore (Plot.of_arrays "a" [| 1. |] [| 1.; 2. |]))

let test_save_svg () =
  let path = Filename.temp_file "plot" ".svg" in
  Plot.save_svg ~path [ line ];
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "nonempty file" true (len > 200)

(* ---------- gantt ---------- *)

let segs =
  [
    { Plot.row = 0; t_start = 0.; t_end = 1.; category = "send" };
    { Plot.row = 1; t_start = 1.; t_end = 3.; category = "compute" };
    { Plot.row = 0; t_start = 3.; t_end = 3.5; category = "recv" };
  ]

let test_gantt_structure () =
  let svg = Plot.gantt_svg ~title:"round" ~row_labels:[ "sup"; "w0" ] segs in
  Alcotest.(check bool) "svg" true (contains svg "<svg xmlns");
  Alcotest.(check bool) "row label" true (contains svg ">sup</text>");
  Alcotest.(check bool) "legend categories" true
    (contains svg ">send</text>" && contains svg ">compute</text>");
  (* 3 activity rects + 3 legend swatches + background. *)
  let rects =
    String.split_on_char '
' svg
    |> List.filter (fun l -> contains l "<rect")
    |> List.length
  in
  Alcotest.(check int) "rect count" 7 rects

let test_gantt_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Plot.gantt_svg: empty input")
    (fun () -> ignore (Plot.gantt_svg ~row_labels:[ "a" ] []));
  Alcotest.check_raises "bad row"
    (Invalid_argument "Plot.gantt_svg: row out of range") (fun () ->
      ignore (Plot.gantt_svg ~row_labels:[ "a" ] segs))

let () =
  Alcotest.run "om_viz"
    [
      ( "svg",
        [
          Alcotest.test_case "structure" `Quick test_svg_structure;
          Alcotest.test_case "dimensions" `Quick test_svg_dimensions;
          Alcotest.test_case "rejects empty" `Quick test_svg_rejects_empty;
          Alcotest.test_case "points inside viewbox" `Quick
            test_svg_points_inside_viewbox;
          Alcotest.test_case "save" `Quick test_save_svg;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "structure" `Quick test_gantt_structure;
          Alcotest.test_case "rejects bad input" `Quick test_gantt_rejects;
        ] );
      ( "ascii",
        [
          Alcotest.test_case "of_arrays" `Quick test_of_arrays;
        ] );
    ]
