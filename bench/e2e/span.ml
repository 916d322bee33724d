(* Stage spans recorded by the benchmark around its own calls into each
   library, on the monotonic clock.  Spans live in memory and are written
   out as Chrome trace JSON when a run ends.

   A span's name is [<layer>.<stage>].  Its self time is its duration
   minus the time its children cover; self times summed per name are the
   per-layer numbers.  Recording happens on the calling domain only, and
   only while [enabled] is set, so an untraced op pays one [bool] test
   per boundary. *)

let now = Om_parallel.Monotonic.now

type span = {
  id : int;
  name : string;
  req : string;  (** request id: one serve job, one compile, one op *)
  parent : int;  (** [-1] for a root *)
  t0 : float;
  t1 : float;
}

type frame = { fid : int; freq : string; ft0 : float; mutable child : float }

let enabled = ref false
let next_id = ref 0
let recorded : span list ref = ref []
let stack : frame list ref = ref []
let self_s : (string, float) Hashtbl.t = Hashtbl.create 32
let counts : (string, int) Hashtbl.t = Hashtbl.create 32
let root_s = ref 0.

let reset () =
  next_id := 0;
  recorded := [];
  stack := [];
  Hashtbl.reset self_s;
  Hashtbl.reset counts;
  root_s := 0.

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let bump name =
  Hashtbl.replace counts name
    (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))

let fresh () =
  let id = !next_id in
  incr next_id;
  id

(* Account a finished span of [dur] seconds with [child] seconds covered
   by its children, and charge it to its parent. *)
let settle ~name ~parent_frame ~dur ~child =
  add self_s name (dur -. child);
  bump name;
  match parent_frame with
  | Some p -> p.child <- p.child +. dur
  | None -> root_s := !root_s +. dur

let with_ ?req name f =
  if not !enabled then f ()
  else begin
    let parent_frame = match !stack with p :: _ -> Some p | [] -> None in
    let req =
      match (req, parent_frame) with
      | Some r, _ -> r
      | None, Some p -> p.freq
      | None, None -> name
    in
    let fr = { fid = fresh (); freq = req; ft0 = now (); child = 0. } in
    stack := fr :: !stack;
    let finish () =
      let t1 = now () in
      stack := (match !stack with _ :: rest -> rest | [] -> []);
      settle ~name ~parent_frame ~dur:(t1 -. fr.ft0) ~child:fr.child;
      recorded :=
        { id = fr.fid; name; req; t0 = fr.ft0; t1;
          parent = (match parent_frame with Some p -> p.fid | None -> -1) }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

(* A hot-path callback (one RHS or Jacobian evaluation): its time is
   charged to [name] and to the enclosing span like a child span, but
   no event is kept — there are thousands per op. *)
let leaf name f =
  if not !enabled then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let dur = now () -. t0 in
    add self_s name dur;
    bump name;
    (match !stack with p :: _ -> p.child <- p.child +. dur | [] -> ());
    r
  end

(* A span measured elsewhere (a serve job's queue and run phases, read
   from its status record), entered after the fact.  [children] must
   lie inside [t0, t1]. *)
let record_closed ~req ~name ~t0 ~t1 ~children =
  if !enabled then begin
    let pid = fresh () in
    let child =
      List.fold_left
        (fun acc (cname, c0, c1) ->
          let dur = c1 -. c0 in
          add self_s cname dur;
          bump cname;
          recorded :=
            { id = fresh (); name = cname; req; parent = pid; t0 = c0; t1 = c1 }
            :: !recorded;
          acc +. dur)
        0. children
    in
    settle ~name ~parent_frame:None ~dur:(t1 -. t0) ~child;
    recorded := { id = pid; name; req; parent = -1; t0; t1 } :: !recorded
  end

let self name = Option.value ~default:0. (Hashtbl.find_opt self_s name)
let count name = Option.value ~default:0 (Hashtbl.find_opt counts name)

(* Wall time of all root spans, and the share of it that named layer
   spans (everything but the harness's own [bench.*] roots) explain. *)
let traced_wall () = !root_s

let coverage () =
  if !root_s <= 0. then 0.
  else
    let covered =
      Hashtbl.fold
        (fun name s acc ->
          if String.starts_with ~prefix:"bench." name then acc
          else acc +. s)
        self_s 0.
    in
    covered /. !root_s

let frac name = if !root_s <= 0. then 0. else self name /. !root_s

(* Chrome trace-event JSON ("X" complete events, microseconds), under
   process [pid] named [process], so traces of several workloads merge
   by concatenation. *)
let events ~pid ~process =
  let module J = Om_serve.Json in
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity !recorded in
  J.Obj
    [ ("name", J.Str "process_name"); ("ph", J.Str "M"); ("pid", J.Int pid);
      ("args", J.Obj [ ("name", J.Str process) ]) ]
  :: List.rev_map
       (fun s ->
         J.Obj
           [
             ("name", J.Str s.name);
             ("cat", J.Str (List.hd (String.split_on_char '.' s.name)));
             ("ph", J.Str "X");
             ("ts", J.Num ((s.t0 -. origin) *. 1e6));
             ("dur", J.Num ((s.t1 -. s.t0) *. 1e6));
             ("pid", J.Int pid);
             ("tid", J.Int 1);
             ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("req", J.Str s.req) ]);
           ])
       !recorded

let write_chrome path evs =
  let module J = Om_serve.Json in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string (J.Obj [ ("traceEvents", J.Arr evs) ])))
