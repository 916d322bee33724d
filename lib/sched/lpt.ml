type schedule = {
  nprocs : int;
  assignment : int array;
  loads : float array;
  makespan : float;
}

let schedule ?costs tasks ~nprocs =
  if nprocs < 1 then invalid_arg "Lpt.schedule: nprocs < 1";
  let n = Array.length tasks in
  let cost i =
    match costs with
    | Some c -> c.(i)
    | None -> tasks.(i).Task.cost
  in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare (cost b) (cost a)) order;
  let loads = Array.make nprocs 0. in
  let assignment = Array.make n 0 in
  (* Binary min-heap of processors keyed by (load, index): the root is
     the least-loaded processor with ties broken by lowest index —
     exactly what the historical linear scan picked, so assignments are
     byte-identical, in O(n log p) instead of O(n p).  The identity
     layout is a valid heap for the all-zero initial loads. *)
  let heap = Array.init nprocs Fun.id in
  let less a b = loads.(a) < loads.(b) || (loads.(a) = loads.(b) && a < b) in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    let r = l + 1 in
    let m = if l < nprocs && less heap.(l) heap.(i) then l else i in
    let m = if r < nprocs && less heap.(r) heap.(m) then r else m in
    if m <> i then begin
      let t = heap.(i) in
      heap.(i) <- heap.(m);
      heap.(m) <- t;
      sift_down m
    end
  in
  Array.iter
    (fun i ->
      let best = heap.(0) in
      assignment.(i) <- best;
      loads.(best) <- loads.(best) +. cost i;
      sift_down 0)
    order;
  let makespan = Array.fold_left Float.max 0. loads in
  { nprocs; assignment; loads; makespan }

let tasks_of sched p =
  let acc = ref [] in
  Array.iteri (fun i q -> if q = p then acc := i :: !acc) sched.assignment;
  List.rev !acc
