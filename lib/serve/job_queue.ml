(* Binary max-heap of (priority, deadline, seq, item): higher priority
   first; within a priority, earlier absolute deadline first (no
   deadline = infinity); FIFO (lower sequence number) as the final tie
   break.  The same mutex also carries the admission-control state:
   per-tenant queued counts (checked at submit) and per-tenant running
   counts (checked at pop, so a tenant at its running quota cannot
   starve other tenants' jobs behind it in the heap). *)

type 'a entry = {
  prio : int;
  deadline : float;  (* absolute epoch seconds; infinity = none *)
  seq : int;
  tenant : string;
  item : 'a;
}

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable heap : 'a entry array;  (* heap.(0 .. size-1) is the heap *)
  mutable size : int;
  mutable seq : int;
  mutable is_closed : bool;
  cap : int;
  max_queued : int;  (* per tenant; 0 = unlimited *)
  max_running : int;  (* per tenant; 0 = unlimited *)
  queued : (string, int) Hashtbl.t;
  running : (string, int) Hashtbl.t;
}

let create ?(max_queued_per_tenant = 0) ?(max_running_per_tenant = 0)
    ~capacity () =
  if capacity < 1 then invalid_arg "Job_queue.create: capacity < 1";
  if max_queued_per_tenant < 0 || max_running_per_tenant < 0 then
    invalid_arg "Job_queue.create: negative tenant quota";
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    heap = [||];
    size = 0;
    seq = 0;
    is_closed = false;
    cap = capacity;
    max_queued = max_queued_per_tenant;
    max_running = max_running_per_tenant;
    queued = Hashtbl.create 8;
    running = Hashtbl.create 8;
  }

let count tbl tenant = Option.value ~default:0 (Hashtbl.find_opt tbl tenant)

let adjust tbl tenant d =
  let n = count tbl tenant + d in
  if n <= 0 then Hashtbl.remove tbl tenant else Hashtbl.replace tbl tenant n

let before a b =
  a.prio > b.prio
  || (a.prio = b.prio
      && (a.deadline < b.deadline
         || (a.deadline = b.deadline && a.seq < b.seq)))

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!best) then best := l;
  if r < t.size && before t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let submit ?(tenant = "") ?(deadline = Float.infinity) ?(force = false) t
    ~priority item =
  Mutex.lock t.mutex;
  let result =
    if t.is_closed then `Closed
    else if (not force) && t.size >= t.cap then `Rejected_full
    else if
      (not force) && t.max_queued > 0 && count t.queued tenant >= t.max_queued
    then `Rejected_quota
    else begin
      if t.size = Array.length t.heap then begin
        let grown =
          Array.make
            (max 8 (2 * max 1 (Array.length t.heap)))
            { prio = 0; deadline = 0.; seq = 0; tenant; item }
        in
        Array.blit t.heap 0 grown 0 t.size;
        t.heap <- grown
      end;
      t.heap.(t.size) <-
        { prio = priority; deadline; seq = t.seq; tenant; item };
      t.seq <- t.seq + 1;
      t.size <- t.size + 1;
      sift_up t (t.size - 1);
      adjust t.queued tenant 1;
      Condition.signal t.nonempty;
      `Ok
    end
  in
  Mutex.unlock t.mutex;
  result

let eligible t e =
  t.max_running = 0 || count t.running e.tenant < t.max_running

(* Remove entry [i] keeping the heap shape: move the last entry into the
   hole and restore the invariant in whichever direction it broke. *)
let remove_at t i =
  t.size <- t.size - 1;
  if i < t.size then begin
    t.heap.(i) <- t.heap.(t.size);
    sift_down t i;
    sift_up t i
  end

(* The best entry whose tenant is under its running quota.  The root is
   the global best, so when it is eligible (always, without quotas) this
   is O(log n); otherwise a linear scan finds the best eligible entry —
   heap order only holds along root paths, so scanning is required and
   fine at queue scale. *)
let take_best_eligible t =
  if t.size = 0 then None
  else if eligible t t.heap.(0) then begin
    let e = t.heap.(0) in
    remove_at t 0;
    Some e
  end
  else begin
    let best = ref (-1) in
    for i = 1 to t.size - 1 do
      if eligible t t.heap.(i)
         && (!best < 0 || before t.heap.(i) t.heap.(!best))
      then best := i
    done;
    if !best < 0 then None
    else begin
      let e = t.heap.(!best) in
      remove_at t !best;
      Some e
    end
  end

let pop t =
  Mutex.lock t.mutex;
  let rec go () =
    match take_best_eligible t with
    | Some e ->
        adjust t.queued e.tenant (-1);
        adjust t.running e.tenant 1;
        Some e.item
    | None ->
        if t.size = 0 && t.is_closed then None
        else begin
          (* Either the queue is empty (wait for a submit or close) or
             every queued job's tenant is at its running quota (wait for
             a [finished], which broadcasts). *)
          Condition.wait t.nonempty t.mutex;
          go ()
        end
  in
  let result = go () in
  Mutex.unlock t.mutex;
  result

let finished t ~tenant =
  Mutex.lock t.mutex;
  adjust t.running tenant (-1);
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

let close t =
  Mutex.lock t.mutex;
  t.is_closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

let closed t =
  Mutex.lock t.mutex;
  let c = t.is_closed in
  Mutex.unlock t.mutex;
  c

let length t =
  Mutex.lock t.mutex;
  let n = t.size in
  Mutex.unlock t.mutex;
  n

let queued_for t ~tenant =
  Mutex.lock t.mutex;
  let n = count t.queued tenant in
  Mutex.unlock t.mutex;
  n

let running_for t ~tenant =
  Mutex.lock t.mutex;
  let n = count t.running tenant in
  Mutex.unlock t.mutex;
  n
