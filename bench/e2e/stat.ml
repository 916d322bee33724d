(* Summary statistics used by every workload and by [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  [p] is clamped to [0, 100]. *)
let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stat.percentile: no samples"
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let p = Float.min 100. (Float.max 0. p) in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* Median with the two middle samples averaged, as Python's
   [statistics.median] does. *)
let median xs =
  match xs with
  | [] -> invalid_arg "Stat.median: no samples"
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles xs ~n:4], the rule the benchmark's spread check
   uses.  A single sample is its own quartiles. *)
let quartiles xs =
  match xs with
  | [] -> invalid_arg "Stat.quartiles: no samples"
  | [ x ] -> (x, x)
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let at i =
        let m = n + 1 in
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (at 1, at 3)

(* Interquartile range as a share of the median ([0.] for a zero
   median). *)
let rel_iqr xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stat.geomean: no samples"
  | _ ->
      if List.exists (fun x -> x <= 0.) xs then
        invalid_arg "Stat.geomean: non-positive sample";
      let s = List.fold_left (fun acc x -> acc +. Float.log x) 0. xs in
      Float.exp (s /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs
