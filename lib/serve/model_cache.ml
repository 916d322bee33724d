type entry = { key : string; compiled : Om_codegen.Pipeline.model }

type stats = {
  compiles : int;
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

type slot = { entry : entry; mutable last_used : int }

(* One latch per source being compiled right now: the compiling thread
   publishes its outcome here and wakes every waiter.  The latch lives
   in [inflight] only while the compile runs, so the table mutex is
   never held across a compile. *)
type latch = {
  lmutex : Mutex.t;
  ldone : Condition.t;
  mutable outcome : (entry, exn) result option;
}

type t = {
  mutex : Mutex.t;  (* guards table, inflight and the counters — map
                       operations only, never compilation *)
  table : (string, slot) Hashtbl.t;
  inflight : (string, latch) Hashtbl.t;
  cap : int;
  on_compile : (string -> unit) option;
  mutable tick : int;  (* LRU clock: bumped on every hit/insert *)
  mutable compiles : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?on_compile ~capacity () =
  if capacity < 0 then invalid_arg "Model_cache.create: capacity < 0";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create (max 8 capacity);
    inflight = Hashtbl.create 8;
    cap = capacity;
    on_compile;
    tick = 0;
    compiles = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let touch t slot =
  t.tick <- t.tick + 1;
  slot.last_used <- t.tick

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key slot acc ->
        match acc with
        | Some (_, best) when best.last_used <= slot.last_used -> acc
        | _ -> Some (key, slot))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1

let resolve latch outcome =
  Mutex.lock latch.lmutex;
  latch.outcome <- Some outcome;
  Condition.broadcast latch.ldone;
  Mutex.unlock latch.lmutex

let await latch =
  Mutex.lock latch.lmutex;
  while latch.outcome = None do
    Condition.wait latch.ldone latch.lmutex
  done;
  let outcome = Option.get latch.outcome in
  Mutex.unlock latch.lmutex;
  outcome

let rec lookup t source =
  let key = Om_codegen.Pipeline.source_key source in
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table key with
  | Some slot ->
      t.hits <- t.hits + 1;
      touch t slot;
      Mutex.unlock t.mutex;
      `Hit slot.entry
  | None -> (
      match Hashtbl.find_opt t.inflight key with
      | Some latch -> (
          (* Someone is compiling this source right now: wait on its
             latch (off the table mutex, so hits on other sources keep
             flowing) and take the hit path — the compile was skipped. *)
          t.hits <- t.hits + 1;
          Mutex.unlock t.mutex;
          match await latch with
          | Ok entry -> `Hit entry
          | Error _ ->
              (* The compile we piggybacked on failed.  Retry from the
                 top: the latch is gone, so this attempt either compiles
                 itself and raises the error to its own caller with the
                 hit stat rolled back, or joins a newer attempt. *)
              Mutex.lock t.mutex;
              t.hits <- t.hits - 1;
              Mutex.unlock t.mutex;
              lookup t source)
      | None ->
          let latch =
            { lmutex = Mutex.create (); ldone = Condition.create ();
              outcome = None }
          in
          Hashtbl.add t.inflight key latch;
          t.misses <- t.misses + 1;
          Mutex.unlock t.mutex;
          (* Compile with no lock held: a slow compile stalls only
             requests for this same source (parked on the latch above),
             never hits or compiles of other sources. *)
          (match t.on_compile with Some f -> f source | None -> ());
          match Om_codegen.Pipeline.model_of_source source with
          | compiled ->
              let entry = { key; compiled } in
              Mutex.lock t.mutex;
              t.compiles <- t.compiles + 1;
              if t.cap > 0 then begin
                if Hashtbl.length t.table >= t.cap then evict_lru t;
                let slot = { entry; last_used = 0 } in
                touch t slot;
                Hashtbl.add t.table key slot
              end;
              Hashtbl.remove t.inflight key;
              Mutex.unlock t.mutex;
              resolve latch (Ok entry);
              `Miss entry
          | exception e ->
              Mutex.lock t.mutex;
              Hashtbl.remove t.inflight key;
              (* An ill-formed source is neither a hit nor a miss: the
                 stats count cache traffic for real models only. *)
              t.misses <- t.misses - 1;
              Mutex.unlock t.mutex;
              resolve latch (Error e);
              raise e)

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      compiles = t.compiles;
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      entries = Hashtbl.length t.table;
    }
  in
  Mutex.unlock t.mutex;
  s

let resident t =
  Mutex.lock t.mutex;
  let slots = Hashtbl.fold (fun key slot acc -> (key, slot.last_used) :: acc) t.table [] in
  Mutex.unlock t.mutex;
  slots
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map fst
