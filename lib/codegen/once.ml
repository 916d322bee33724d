type 'a t = { build : unit -> 'a; value : 'a option Atomic.t; lock : Mutex.t }

let make build = { build; value = Atomic.make None; lock = Mutex.create () }

let force t =
  match Atomic.get t.value with
  | Some v -> v
  | None ->
      Mutex.protect t.lock (fun () ->
          match Atomic.get t.value with
          | Some v -> v
          | None ->
              let v = t.build () in
              Atomic.set t.value (Some v);
              v)
