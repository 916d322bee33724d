(* Parallel lane dispatch for batched ensemble evaluation.

   One {!Om_codegen.Batch_backend.t} is shared by every worker: all of
   its mutable state is lane-indexed, so disjoint lane slices are safe
   to drive concurrently (see the Batch_backend docs).  The pool's job
   is fixed at creation and reads the current request from a mutable
   record, so a steady-state round allocates nothing on any domain.

   Per-lane arithmetic is independent of the slicing, so the parallel
   right-hand side is bitwise identical to the sequential one. *)

module Bb = Om_codegen.Batch_backend
module Pool = Om_parallel.Domain_pool

type request = {
  mutable times : float array;
  mutable y : float array array;
  mutable ydot : float array array;
  mutable lo : int;
  mutable hi : int;
}

type t = {
  backend : Bb.t;
  pool : Pool.t option; (* [None]: evaluate on the calling domain *)
  req : request;
}

let create ?(domains = 1) backend =
  if domains < 1 then invalid_arg "Ensemble_exec.create: domains < 1";
  let req = { times = [||]; y = [||]; ydot = [||]; lo = 0; hi = 0 } in
  let pool =
    if domains = 1 then None
    else
      let job w =
        let lo = req.lo and hi = req.hi in
        let n = hi - lo in
        let wlo = lo + (n * w / domains)
        and whi = lo + (n * (w + 1) / domains) in
        if whi > wlo then
          Bb.brhs backend ~times:req.times ~y:req.y ~ydot:req.ydot ~lo:wlo
            ~hi:whi
      in
      Some (Pool.create ~job domains)
  in
  { backend; pool; req }

let brhs t ~times ~y ~ydot ~lo ~hi =
  match t.pool with
  | None -> Bb.brhs t.backend ~times ~y ~ydot ~lo ~hi
  | Some pool ->
      t.req.times <- times;
      t.req.y <- y;
      t.req.ydot <- ydot;
      t.req.lo <- lo;
      t.req.hi <- hi;
      Pool.round pool

let shutdown t = match t.pool with None -> () | Some p -> Pool.shutdown p
