type mat = float array array

let make rows cols x = Array.init rows (fun _ -> Array.make cols x)

let copy a = Array.map Array.copy a

type lu = { a : mat; piv : int array }

exception Singular of int

let lu_factor m =
  let n = Array.length m in
  if n > 0 && Array.length m.(0) <> n then
    invalid_arg "Linalg.lu_factor: not square";
  let a = copy m in
  let piv = Array.init n Fun.id in
  for k = 0 to n - 1 do
    (* Partial pivoting: bring the largest magnitude entry of column k
       into the pivot position. *)
    let best = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!best).(k) then best := i
    done;
    if !best <> k then begin
      let tmp = a.(k) in
      a.(k) <- a.(!best);
      a.(!best) <- tmp;
      let tp = piv.(k) in
      piv.(k) <- piv.(!best);
      piv.(!best) <- tp
    end;
    let pivot = a.(k).(k) in
    if pivot = 0. then raise (Singular k);
    for i = k + 1 to n - 1 do
      let f = a.(i).(k) /. pivot in
      a.(i).(k) <- f;
      for j = k + 1 to n - 1 do
        a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
      done
    done
  done;
  { a; piv }

let lu_solve { a; piv } b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Linalg.lu_solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(piv.(i))) in
  (* Forward substitution with unit lower triangle. *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (a.(i).(j) *. x.(j))
    done
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- x.(i) /. a.(i).(i)
  done;
  x

let norm2 v =
  Float.sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v)

let wrms_norm v w =
  let n = Array.length v in
  if n = 0 then 0.
  else begin
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let r = v.(i) /. w.(i) in
      acc := !acc +. (r *. r)
    done;
    Float.sqrt (!acc /. float_of_int n)
  end
