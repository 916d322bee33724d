type series = { label : string; points : (float * float) list }

let series label points = { label; points }

let of_arrays label xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Plot.of_arrays: length mismatch";
  { label; points = Array.to_list (Array.map2 (fun x y -> (x, y)) xs ys) }

let palette =
  [| "#1f77b4"; "#d62728"; "#2ca02c"; "#9467bd"; "#ff7f0e"; "#8c564b" |]

let bounds all =
  let xs = List.concat_map (fun s -> List.map fst s.points) all in
  let ys = List.concat_map (fun s -> List.map snd s.points) all in
  let min_l = List.fold_left Float.min Float.infinity in
  let max_l = List.fold_left Float.max Float.neg_infinity in
  let pad lo hi =
    if hi > lo then (lo, hi) else (lo -. 0.5, hi +. 0.5)
  in
  let x0, x1 = pad (min_l xs) (max_l xs) in
  let y0, y1 = pad (Float.min 0. (min_l ys)) (max_l ys) in
  (x0, x1, y0, y1)

(* Round a range endpoint to a tidy tick value. *)
let ticks lo hi n =
  let span = hi -. lo in
  List.init (n + 1) (fun i -> lo +. (span *. float_of_int i /. float_of_int n))

let fmt_tick v =
  if Float.abs v >= 1000. then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.3g" v

let to_svg ?(width = 640) ?(height = 400) ?(title = "") ?(x_label = "")
    ?(y_label = "") all =
  if not (List.exists (fun s -> List.length s.points >= 2) all) then
    invalid_arg "Plot.to_svg: need at least one series with two points";
  let x0, x1, y0, y1 = bounds all in
  let ml, mr, mt, mb = (64, 16, 32, 48) in
  let pw = width - ml - mr and ph = height - mt - mb in
  let sx x = float_of_int ml +. ((x -. x0) /. (x1 -. x0) *. float_of_int pw) in
  let sy y =
    float_of_int (mt + ph) -. ((y -. y0) /. (y1 -. y0) *. float_of_int ph)
  in
  let buf = Buffer.create 4096 in
  let put fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  put
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
     viewBox=\"0 0 %d %d\">\n"
    width height width height;
  put "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n" width height;
  if title <> "" then
    put
      "<text x=\"%d\" y=\"20\" text-anchor=\"middle\" font-family=\"sans-serif\" \
       font-size=\"14\">%s</text>\n"
      (width / 2) title;
  (* Axes with ticks and grid lines. *)
  List.iter
    (fun v ->
      let x = sx v in
      put
        "<line x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\" stroke=\"#ddd\"/>\n"
        x mt x (mt + ph);
      put
        "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\" \
         font-family=\"sans-serif\" font-size=\"10\">%s</text>\n"
        x
        (mt + ph + 14)
        (fmt_tick v))
    (ticks x0 x1 8);
  List.iter
    (fun v ->
      let y = sy v in
      put
        "<line x1=\"%d\" y1=\"%.1f\" x2=\"%d\" y2=\"%.1f\" stroke=\"#ddd\"/>\n"
        ml y (ml + pw) y;
      put
        "<text x=\"%d\" y=\"%.1f\" text-anchor=\"end\" \
         font-family=\"sans-serif\" font-size=\"10\">%s</text>\n"
        (ml - 4) (y +. 3.) (fmt_tick v))
    (ticks y0 y1 6);
  put
    "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"none\" \
     stroke=\"black\"/>\n"
    ml mt pw ph;
  if x_label <> "" then
    put
      "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\" \
       font-family=\"sans-serif\" font-size=\"12\">%s</text>\n"
      (ml + (pw / 2))
      (height - 8) x_label;
  if y_label <> "" then
    put
      "<text x=\"14\" y=\"%d\" text-anchor=\"middle\" \
       font-family=\"sans-serif\" font-size=\"12\" \
       transform=\"rotate(-90 14 %d)\">%s</text>\n"
      (mt + (ph / 2))
      (mt + (ph / 2))
      y_label;
  (* Series. *)
  List.iteri
    (fun k s ->
      let color = palette.(k mod Array.length palette) in
      let pts =
        String.concat " "
          (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (sx x) (sy y))
             s.points)
      in
      put
        "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
         stroke-width=\"1.5\"/>\n"
        pts color;
      (* Legend entry. *)
      let ly = mt + 12 + (k * 16) in
      put
        "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"%s\" \
         stroke-width=\"2\"/>\n"
        (ml + pw - 130) ly (ml + pw - 110) ly color;
      put
        "<text x=\"%d\" y=\"%d\" font-family=\"sans-serif\" \
         font-size=\"11\">%s</text>\n"
        (ml + pw - 104) (ly + 4) s.label)
    all;
  put "</svg>\n";
  Buffer.contents buf

let save_svg ~path ?width ?height ?title ?x_label ?y_label all =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_svg ?width ?height ?title ?x_label ?y_label all))

type gantt_segment = {
  row : int;
  t_start : float;
  t_end : float;
  category : string;
}

let gantt_svg ?(width = 720) ?(height = 0) ?(title = "") ~row_labels segments
    =
  if segments = [] || row_labels = [] then
    invalid_arg "Plot.gantt_svg: empty input";
  let nrows = List.length row_labels in
  List.iter
    (fun s ->
      if s.row < 0 || s.row >= nrows then
        invalid_arg "Plot.gantt_svg: row out of range")
    segments;
  let lane = 22 in
  let ml, mr, mt, mb = (110, 16, 36, 36) in
  let height = if height > 0 then height else mt + mb + (nrows * lane) in
  let t1 =
    List.fold_left (fun acc s -> Float.max acc s.t_end) 0. segments
  in
  let t1 = if t1 <= 0. then 1. else t1 in
  let pw = width - ml - mr in
  let sx t = float_of_int ml +. (t /. t1 *. float_of_int pw) in
  let categories =
    List.sort_uniq compare (List.map (fun s -> s.category) segments)
  in
  let color c =
    let rec idx i = function
      | [] -> 0
      | x :: rest -> if x = c then i else idx (i + 1) rest
    in
    palette.(idx 0 categories mod Array.length palette)
  in
  let buf = Buffer.create 4096 in
  let put fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  put
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
     viewBox=\"0 0 %d %d\">\n"
    width height width height;
  put "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n" width height;
  if title <> "" then
    put
      "<text x=\"%d\" y=\"20\" text-anchor=\"middle\" \
       font-family=\"sans-serif\" font-size=\"13\">%s</text>\n"
      (width / 2) title;
  List.iteri
    (fun i label ->
      let y = mt + (i * lane) in
      put
        "<text x=\"%d\" y=\"%d\" text-anchor=\"end\" \
         font-family=\"sans-serif\" font-size=\"11\">%s</text>\n"
        (ml - 6)
        (y + (lane / 2) + 4)
        label;
      put
        "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#eee\"/>\n" ml
        (y + lane) (ml + pw) (y + lane))
    row_labels;
  List.iter
    (fun s ->
      let y = mt + (s.row * lane) + 3 in
      put
        "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" \
         fill=\"%s\" stroke=\"none\"/>\n"
        (sx s.t_start) y
        (Float.max 0.5 (sx s.t_end -. sx s.t_start))
        (lane - 6) (color s.category))
    segments;
  (* Time axis and legend. *)
  List.iter
    (fun v ->
      put
        "<text x=\"%.1f\" y=\"%d\" text-anchor=\"middle\" \
         font-family=\"sans-serif\" font-size=\"10\">%s</text>\n"
        (sx v)
        (height - mb + 14)
        (fmt_tick v))
    (ticks 0. t1 6);
  List.iteri
    (fun k c ->
      let x = ml + (k * 110) in
      put
        "<rect x=\"%d\" y=\"%d\" width=\"12\" height=\"12\" fill=\"%s\"/>\n" x
        (height - 16) (color c);
      put
        "<text x=\"%d\" y=\"%d\" font-family=\"sans-serif\" \
         font-size=\"11\">%s</text>\n"
        (x + 16)
        (height - 6)
        c)
    categories;
  put "</svg>\n";
  Buffer.contents buf
