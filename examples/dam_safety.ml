(* Parameter sweep: the paper's own use case for the power plant model —
   "the model can be used for verifying dam safety margins, for example"
   (§2.5).  Sweep the river inflow and watch the steady dam level and the
   spillway flow; the safety margin is the inflow at which the spillway
   must engage.

   Run with:  dune exec examples/dam_safety.exe *)

let () =
  let source = Om_models.Powerplant.source () in
  let inflows = [ 180.; 300.; 420.; 480.; 540.; 600.; 660. ] in
  Printf.printf "sweeping river inflow over %d values (2 simulated hours each)...\n\n"
    (List.length inflows);
  (* One ensemble: each point's finals are the dam level, then the
     spillway flow. *)
  let points =
    Objectmath.Sweep.run ~source ~cls:"Dam" ~param:"inflow" ~values:inflows
      ~tend:7200.
      ~states:[| "Dam.SurfaceLevel"; "Spill.Flow" |]
      ()
  in
  Printf.printf "%12s %18s %18s\n" "inflow m3/s" "dam level [m]"
    "spillway [m3/s]";
  List.iter
    (fun (p : Objectmath.Sweep.point) ->
      Printf.printf "%12.0f %18.3f %18.2f%s\n" p.value p.finals.(0)
        p.finals.(1)
        (if p.finals.(1) > 1. then "   <- spillway engaged" else ""))
    points;
  (* The safety margin: the largest swept inflow the gates absorb without
     spilling. *)
  let margin =
    List.fold_left
      (fun acc (p : Objectmath.Sweep.point) ->
        if p.finals.(1) <= 1. then Float.max acc p.value else acc)
      0. points
  in
  Printf.printf
    "\nsafety margin: gates absorb inflows up to ~%.0f m3/s before the\n\
     spillway engages (crest at 10.5 m)\n"
    margin;
  Objectmath.Plot.save_svg ~path:"dam_safety.svg"
    ~title:"Dam level and spillway flow vs river inflow"
    ~x_label:"inflow [m3/s]"
    [
      Objectmath.Sweep.to_series "dam level [m]" 0 points;
      Objectmath.Sweep.to_series "spillway [m3/s]" 1 points;
    ];
  Printf.printf "plot written to dam_safety.svg\n"
