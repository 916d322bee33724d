let in_degrees g =
  let n = Digraph.node_count g in
  let deg = Array.make n 0 in
  List.iter (fun (_, b) -> deg.(b) <- deg.(b) + 1) (Digraph.edges g);
  deg

let sort g =
  let n = Digraph.node_count g in
  let deg = in_degrees g in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) deg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr seen;
    List.iter
      (fun w ->
        deg.(w) <- deg.(w) - 1;
        if deg.(w) = 0 then Queue.add w queue)
      (Digraph.succ g v)
  done;
  if !seen <> n then invalid_arg "Topo.sort: graph has a cycle";
  List.rev !order

let is_acyclic g =
  match sort g with _ -> true | exception Invalid_argument _ -> false

let layers g =
  let n = Digraph.node_count g in
  let order = sort g in
  let level = Array.make n 0 in
  List.iter
    (fun v ->
      List.iter
        (fun w -> level.(w) <- max level.(w) (level.(v) + 1))
        (Digraph.succ g v))
    order;
  let depth = Array.fold_left max 0 level + if n = 0 then 0 else 1 in
  let buckets = Array.make depth [] in
  List.iter (fun v -> buckets.(level.(v)) <- v :: buckets.(level.(v))) order;
  Array.to_list (Array.map List.rev buckets)
