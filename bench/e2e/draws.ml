(* Seeded input generators.  Every random choice a workload makes comes
   from a stream made here from [--seed] and a per-purpose salt, so the
   same seed gives the same inputs and two purposes never share draws. *)

let stream ~seed ~salt = Random.State.make [| seed; Hashtbl.hash salt |]

(* Uniform in [-1, 1). *)
let symmetric rng = Random.State.float rng 2. -. 1.

(* Arrival times of a Poisson process of [rate] per second on
   [0, duration): exponential gaps by inversion. *)
let poisson_arrivals rng ~rate ~duration =
  if rate <= 0. then invalid_arg "Draws.poisson_arrivals: rate <= 0";
  let rec go t acc =
    let gap = -.Float.log (1. -. Random.State.float rng 1.) /. rate in
    let t = t +. gap in
    if t >= duration then List.rev acc else go t (t :: acc)
  in
  Array.of_list (go 0. [])

(* Index in [0, n) drawn as floor (n * u^3): index 0 is the most popular
   and popularity falls off steeply, the skew that gives a small cache a
   hit ratio well above its share of the key space. *)
let skewed_index rng n =
  if n <= 0 then invalid_arg "Draws.skewed_index: n <= 0";
  let u = Random.State.float rng 1. in
  min (n - 1) (int_of_float (float_of_int n *. u *. u *. u))
