type comm_strategy = Broadcast_state | Needed_only

type round_result = {
  duration : float;
  worker_compute : float array;
  supervisor_busy : float;
  bytes_sent : int;
  bytes_received : int;
}

let bytes_per_value = 8

let sequential_time (m : Machine.t) ~task_flops =
  Array.fold_left (fun acc f -> acc +. (f *. m.flop_time)) 0. task_flops

module Iset = Set.Make (Int)

let union_indices tasks indices_of =
  List.fold_left
    (fun acc i -> List.fold_left (fun s x -> Iset.add x s) acc (indices_of i))
    Iset.empty tasks

type segment = {
  who : int;
  t0 : float;
  t1 : float;
  kind : [ `Send | `Compute | `Recv ];
}

let round_traced (m : Machine.t) ~nworkers ~assignment ~task_flops
    ~task_reads ~task_writes ~state_dim ~strategy =
  let trace = ref [] in
  let ntasks = Array.length task_flops in
  if Array.length assignment <> ntasks then
    invalid_arg "Supervisor.round: assignment length mismatch";
  if nworkers = 0 then
    ( {
        duration = sequential_time m ~task_flops;
        worker_compute = [||];
        supervisor_busy = 0.;
        bytes_sent = 0;
        bytes_received = 0;
      },
      [
        {
          who = -1;
          t0 = 0.;
          t1 = sequential_time m ~task_flops;
          kind = `Compute;
        };
      ] )
  else begin
    Array.iter
      (fun w ->
        if w < 0 || w >= nworkers then
          invalid_arg "Supervisor.round: worker id out of range")
      assignment;
    (* Per-worker task lists. *)
    let tasks_of = Array.make nworkers [] in
    for i = ntasks - 1 downto 0 do
      tasks_of.(assignment.(i)) <- i :: tasks_of.(assignment.(i))
    done;
    let in_bytes w =
      match strategy with
      | Broadcast_state -> (state_dim + 1) * bytes_per_value
      | Needed_only ->
          (* +1 for the time value, always shipped. *)
          (Iset.cardinal
             (union_indices tasks_of.(w) (fun i -> task_reads.(i)))
          + 1)
          * bytes_per_value
    in
    let out_bytes w =
      Iset.cardinal (union_indices tasks_of.(w) (fun i -> task_writes.(i)))
      * bytes_per_value
    in
    let compute_s w =
      let flops =
        List.fold_left (fun acc i -> acc +. task_flops.(i)) 0. tasks_of.(w)
      in
      Machine.compute_time m ~flops ~nworkers
    in
    let sim = Event_sim.create () in
    let supervisor_free = ref 0. in
    let supervisor_busy = ref 0. in
    let occupy_supervisor kind duration =
      (* The supervisor's port is a serial resource. *)
      let start = Float.max !supervisor_free (Event_sim.now sim) in
      supervisor_free := start +. duration;
      supervisor_busy := !supervisor_busy +. duration;
      trace := { who = -1; t0 = start; t1 = !supervisor_free; kind } :: !trace;
      !supervisor_free
    in
    let worker_compute = Array.make nworkers 0. in
    let results_pending = ref nworkers in
    let round_end = ref 0. in
    let bytes_sent = ref 0 in
    let bytes_received = ref 0 in
    (* Messages are priced entirely at the supervisor, whose port is the
       serial bottleneck resource: each send or receive occupies it for
       [latency + bytes * per_byte] (on both 1995 machines the per-message
       latency is dominated by software handling on the sending CPU, LogP's
       "o ~ L"). *)
    let message_cost bytes =
      m.latency +. (float_of_int bytes *. m.per_byte)
    in
    (* Phase 1: supervisor injects one state message per worker, serially,
       starting at t=0; the message lands when injection completes. *)
    for w = 0 to nworkers - 1 do
      let bytes = in_bytes w in
      bytes_sent := !bytes_sent + bytes;
      let arrival = occupy_supervisor `Send (message_cost bytes) in
      Event_sim.at sim arrival (fun () ->
          (* Phase 2: the worker computes its tasks; its result message is
             ready immediately after (worker-side injection overlaps the
             supervisor-side drain below). *)
          let comp = compute_s w in
          worker_compute.(w) <- comp;
          trace :=
            { who = w; t0 = Event_sim.now sim;
              t1 = Event_sim.now sim +. comp; kind = `Compute }
            :: !trace;
          let obytes = out_bytes w in
          bytes_received := !bytes_received + obytes;
          let ready = Event_sim.now sim +. comp in
          Event_sim.at sim ready (fun () ->
              (* Phase 3: the supervisor drains results serially. *)
              let recv_done = occupy_supervisor `Recv (message_cost obytes) in
              decr results_pending;
              if !results_pending = 0 then round_end := recv_done))
    done;
    Event_sim.run sim;
    ( {
        duration = !round_end;
        worker_compute;
        supervisor_busy = !supervisor_busy;
        bytes_sent = !bytes_sent;
        bytes_received = !bytes_received;
      },
      List.rev !trace )
  end

let round m ~nworkers ~assignment ~task_flops ~task_reads ~task_writes
    ~state_dim ~strategy =
  fst
    (round_traced m ~nworkers ~assignment ~task_flops ~task_reads
       ~task_writes ~state_dim ~strategy)

let tree_round (m : Machine.t) ~fanout ~nworkers ~assignment ~task_flops
    ~task_reads ~task_writes ~state_dim =
  ignore task_reads;
  if fanout < 2 then invalid_arg "Supervisor.tree_round: fanout < 2";
  if nworkers < 1 then invalid_arg "Supervisor.tree_round: nworkers < 1";
  let ntasks = Array.length task_flops in
  if Array.length assignment <> ntasks then
    invalid_arg "Supervisor.tree_round: assignment length mismatch";
  let tasks_of = Array.make nworkers [] in
  for i = ntasks - 1 downto 0 do
    tasks_of.(assignment.(i)) <- i :: tasks_of.(assignment.(i))
  done;
  let state_bytes = (state_dim + 1) * bytes_per_value in
  let msg_cost bytes = m.latency +. (float_of_int bytes *. m.per_byte) in
  let out_bytes w =
    Iset.cardinal (union_indices tasks_of.(w) (fun i -> task_writes.(i)))
    * bytes_per_value
  in
  let compute_s w =
    let flops =
      List.fold_left (fun acc i -> acc +. task_flops.(i)) 0. tasks_of.(w)
    in
    Machine.compute_time m ~flops ~nworkers
  in
  (* k-ary tree over the workers with the supervisor as virtual root:
     in heap numbering (supervisor = 0, worker w = node w + 1) node k's
     children are fanout*k + 1 .. fanout*k + fanout, so worker w's
     children are the workers fanout*(w+1) - 1 + j, j = 1..fanout. *)
  let children w =
    List.filter
      (fun c -> c < nworkers)
      (List.init fanout (fun j -> (fanout * (w + 1)) + j))
  in
  let roots = List.filter (fun c -> c < nworkers) (List.init fanout Fun.id) in
  (* --- scatter: each node forwards the state down before computing --- *)
  let arrival = Array.make nworkers 0. in
  (* Supervisor injects serially to the first-level workers. *)
  let sup_free = ref 0. in
  let sup_busy = ref 0. in
  let bytes_sent = ref 0 in
  List.iter
    (fun w ->
      sup_free := !sup_free +. msg_cost state_bytes;
      sup_busy := !sup_busy +. msg_cost state_bytes;
      bytes_sent := !bytes_sent + state_bytes;
      arrival.(w) <- !sup_free)
    roots;
  (* BFS in index order works because children indices exceed parents'. *)
  for w = 0 to nworkers - 1 do
    let port = ref arrival.(w) in
    List.iter
      (fun c ->
        port := !port +. msg_cost state_bytes;
        bytes_sent := !bytes_sent + state_bytes;
        arrival.(c) <- !port)
      (children w)
  done;
  (* Compute start: after forwarding finishes on this node's port. *)
  let forward_done w =
    arrival.(w)
    +. (float_of_int (List.length (children w)) *. msg_cost state_bytes)
  in
  let worker_compute = Array.init nworkers compute_s in
  let compute_end w = forward_done w +. worker_compute.(w) in
  (* --- gather: reduction tree, leaves first (children have larger
     indices, so a reverse scan sees children before parents) --- *)
  let subtree_bytes = Array.init nworkers out_bytes in
  let up_arrive = Array.make nworkers 0. in
  (* time the combined subtree message lands at the parent *)
  for w = nworkers - 1 downto 0 do
    let kids = children w in
    let ready =
      List.fold_left
        (fun acc c ->
          subtree_bytes.(w) <- subtree_bytes.(w) + subtree_bytes.(c);
          Float.max acc up_arrive.(c))
        (compute_end w) kids
    in
    (* Each hop is charged once: at the sender for interior hops, at the
       supervisor drain (below) for the final hop. *)
    up_arrive.(w) <-
      (ready +. if w < fanout then 0. else msg_cost subtree_bytes.(w))
  done;
  (* Supervisor drains the first-level results serially. *)
  let recv_free = ref 0. in
  let bytes_received = ref 0 in
  List.iter
    (fun w ->
      let start = Float.max !recv_free up_arrive.(w) in
      recv_free := start +. msg_cost subtree_bytes.(w);
      sup_busy := !sup_busy +. msg_cost subtree_bytes.(w);
      bytes_received := !bytes_received + subtree_bytes.(w))
    roots;
  {
    duration = !recv_free;
    worker_compute;
    supervisor_busy = !sup_busy;
    bytes_sent = !bytes_sent;
    bytes_received = !bytes_received;
  }

let round_desc m ~nworkers ~strategy (d : Round_desc.t) =
  round m ~nworkers ~assignment:d.assignment ~task_flops:d.task_flops
    ~task_reads:d.task_reads ~task_writes:d.task_writes
    ~state_dim:d.state_dim ~strategy
