(* Allocation-free post-round finite check.

   [x -. x] is 0. exactly when [x] is finite (inf - inf and nan - nan
   are both nan, and nan <> 0.), so the scan costs one subtraction and
   one compare per state slot, touches no heap, and never boxes — the
   guarded fast path stays on the zero-allocation round budget enforced
   by the Gc regression tests.  Attribution (building the flattened
   equation name) only happens on the failure path. *)

type t = { names : string array; dim : int }

let create ~names ~dim =
  if Array.length names < dim then
    invalid_arg "Finite_guard.create: names shorter than dim";
  { names; dim }

let dim t = t.dim

let[@inline] slot_bad v = v -. v <> 0.

let raise_slot t ~time ydot i =
  let value = ydot.(i) in
  Om_error.error
    (Om_error.Nonfinite_output
       { slot = i; equation = "der(" ^ t.names.(i) ^ ")"; value; time })

let check t ~time ydot =
  let n = t.dim in
  for i = 0 to n - 1 do
    if slot_bad (Array.unsafe_get ydot i) then raise_slot t ~time ydot i
  done
