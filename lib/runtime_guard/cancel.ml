type t = {
  job : string;
  reason : string option Atomic.t;  (* [Some r] once cancelled *)
  deadline_s : float;  (* relative seconds; 0. = disarmed *)
  t0 : float;
}

let create ?(deadline_s = 0.) ~job () =
  if deadline_s < 0. then invalid_arg "Cancel.create: negative deadline";
  { job; reason = Atomic.make None; deadline_s; t0 = Unix.gettimeofday () }

let cancel ?(reason = "cancelled by client") t =
  ignore (Atomic.compare_and_set t.reason None (Some reason))

let elapsed t = Unix.gettimeofday () -. t.t0
let armed t = t.deadline_s > 0.

let check t =
  match Atomic.get t.reason with
  | Some reason -> Om_error.(error (Cancelled { job = t.job; reason }))
  | None ->
      if armed t then begin
        let elapsed_s = elapsed t in
        if elapsed_s > t.deadline_s then
          Om_error.(
            error
              (Deadline_exceeded
                 { job = t.job; deadline_s = t.deadline_s; elapsed_s }))
      end
