(* Host-speed calibration.  The shared 2-vCPU virtual machines the
   benchmark was built on change speed by up to 2x for minutes at a time,
   and every op of every workload slows with them.  So each run also
   times a fixed kernel of plain OCaml — a small register-machine
   interpreter, a persistent map and a float sort, no code of this
   repository, allocating only short-lived data — and reports its times
   scaled by [reference_s / kernel time]: times on a host where the
   kernel takes [reference_s].  Over ten-second windows of a six-minute
   probe, heat-500 compile times varied ±8% and their ratio to the
   kernel ±4% (README.md, "Host-speed calibration"). *)

let now = Om_parallel.Monotonic.now

module Int_map = Map.Make (Int)

type ins =
  | Add of int * int * int
  | Mul of int * int * int
  | Sub of int * int * int
  | Load of int * float
  | Neg of int * int

let program =
  Array.init 64 (fun i ->
      match i mod 5 with
      | 0 -> Add (i mod 16, i * 3 mod 16, i * 7 mod 16)
      | 1 -> Mul (i mod 16, i * 5 mod 16, i * 11 mod 16)
      | 2 -> Sub ((i + 1) mod 16, i mod 16, i * 13 mod 16)
      | 3 -> Load (i mod 16, 0.999 +. (float_of_int i *. 1e-4))
      | _ -> Neg ((i + 3) mod 16, i * 9 mod 16))

let interpret reps =
  let r = Array.init 16 (fun i -> 1. +. (float_of_int i *. 0.01)) in
  for _ = 1 to reps do
    Array.iter
      (function
        | Add (d, a, b) -> r.(d) <- r.(a) +. r.(b)
        | Mul (d, a, b) -> r.(d) <- r.(a) *. r.(b) *. 0.5
        | Sub (d, a, b) -> r.(d) <- r.(a) -. r.(b)
        | Load (d, c) -> r.(d) <- c
        | Neg (d, a) -> r.(d) <- -.r.(a))
      program;
    for i = 0 to 15 do
      if Float.abs r.(i) > 1e6 || Float.is_nan r.(i) then r.(i) <- 1.
    done
  done;
  r.(0)

let build_map n =
  let m = ref Int_map.empty in
  for i = 0 to n - 1 do
    m := Int_map.add (i * 7919 land 65535) i !m
  done;
  List.length (List.sort compare (Int_map.fold (fun k v acc -> (k + v) :: acc) !m []))

let sort_floats n =
  let a = Array.init n (fun i -> float_of_int (i * 2654435761 land 1048575)) in
  Array.sort Float.compare a;
  a.(n / 2)

(* The three parts take about equal time. *)
let kernel () =
  ignore (Sys.opaque_identity (interpret 5000, build_map 4000, sort_floats 5000))

(* Seconds for one kernel run. *)
let time_kernel () =
  let t0 = now () in
  kernel ();
  now () -. t0

(* The kernel's time on the host the baseline was measured on, when it
   was not slowed. *)
let reference_s = 3.2e-3

(* [x] measured while the kernel took [kernel_s] seconds, scaled to the
   reference host. *)
let scale ~kernel_s x = x *. reference_s /. kernel_s
