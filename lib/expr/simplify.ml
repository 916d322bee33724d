open Expr

(* [open Expr] shadows the integer operators; restore them locally. *)
let ( +! ) = Stdlib.( + )
let ( -! ) = Stdlib.( - )
let ( *! ) = Stdlib.( * )

(* Decompose a term of a sum into (numeric coefficient, factor list). *)
let decomp = function
  | Const c -> (c, [])
  | Mul (Const c :: fs, _) -> (c, fs)
  | Mul (fs, _) -> (1., fs)
  | e -> (1., [ e ])

let recomp (c, fs) =
  if fs = [] then const c
  else if c = 1. then mul fs
  else mul (const c :: fs)

(* Is [f] sin(x)^2 (resp. cos(x)^2)?  Returns the argument x. *)
let sin2_arg = function
  | Pow (Call (Sin, [ x ], _), Const 2., _) -> Some x
  | _ -> None

let cos2_arg = function
  | Pow (Call (Cos, [ x ], _), Const 2., _) -> Some x
  | _ -> None

(* Rewrite c*sin(x)^2*R + c*cos(x)^2*R into c*R inside a sum. *)
let pythagoras terms =
  let arr = Array.of_list terms in
  let dead = Array.make (Array.length arr) false in
  let extract probe i =
    if dead.(i) then None
    else
      let c, fs = decomp arr.(i) in
      let rec split before = function
        | [] -> None
        | f :: after -> (
            match probe f with
            | Some x -> Some (c, x, List.rev_append before after)
            | None -> split (f :: before) after)
      in
      split [] fs
  in
  let n = Array.length arr in
  let changed = ref false in
  for i = 0 to n -! 1 do
    match extract sin2_arg i with
    | None -> ()
    | Some (ci, xi, resti) ->
        let rec seek j =
          if j >= n then ()
          else
            match extract cos2_arg j with
            | Some (cj, xj, restj)
              when cj = ci && equal xi xj
                   && List.length resti = List.length restj
                   && List.for_all2 equal
                        (List.sort compare resti)
                        (List.sort compare restj) ->
                dead.(j) <- true;
                arr.(i) <- recomp (ci, resti);
                changed := true
            | _ -> seek (j +! 1)
        in
        seek 0
  done;
  if not !changed then add terms
  else
    add
      (Array.to_list arr
      |> List.filteri (fun i _ -> not dead.(i)))

(* Distribute a numeric constant over a sum: c*(a+b) -> c*a + c*b.  This is
   size-neutral and exposes like terms across equation boundaries. *)
let distribute_const factors =
  match factors with
  | Const c :: rest -> (
      let rec pick before = function
        | [] -> None
        | Add (ts, _) :: after ->
            Some
              (add
                 (List.map
                    (fun t -> mul ((const c :: t :: List.rev before) @ after))
                    ts))
        | f :: after -> pick (f :: before) after
      in
      match pick [] rest with Some e -> Some e | None -> None)
  | _ -> None

(* If [e] is a syntactically negative term (leading negative constant),
   return its negation. *)
let strip_negation = function
  | Const c when c < 0. -> Some (const (Float.neg c))
  | Mul (Const c :: rest, _) when c < 0. ->
      Some (mul (const (Float.neg c) :: rest))
  | Const _ | Var _ | Add _ | Mul _ | Pow _ | Call _ | If _ -> None

let is_odd_func = function
  | Sin | Tan | Asin | Atan | Sinh | Tanh | Sign -> true
  | Cos | Acos | Cosh | Exp | Log | Sqrt | Abs | Atan2 | Min | Max | Hypot ->
      false

let is_even_func = function
  | Cos | Cosh | Abs -> true
  | Sin | Tan | Asin | Acos | Atan | Sinh | Tanh | Sign | Exp | Log | Sqrt
  | Atan2 | Min | Max | Hypot ->
      false

let rec simplify e =
  let e = map_children simplify e in
  match e with
  | Add (ts, _) ->
      let e' = pythagoras ts in
      if equal e' e then e else simplify e'
  | Mul (fs, _) -> (
      match distribute_const fs with
      | Some e' when size e' <= size e -> simplify e'
      | _ -> e)
  | Call (Sqrt, [ Pow (b, Const 2., _) ], _) -> abs (simplify b)
  | Pow (Call (Sqrt, [ x ], _), Const 2., _) -> x
  | Pow (Call (Abs, [ x ], _), Const 2., _) -> sqr x
  | Call (Log, [ Call (Exp, [ x ], _) ], _) -> x
  | Call (Exp, [ Call (Log, [ x ], _) ], _) -> x
  | Call (Abs, [ Call (Abs, [ x ], _) ], _) -> abs x
  | Call (f, [ arg ], _) when is_odd_func f || is_even_func f -> (
      (* Odd/even symmetry: f(-x) = ±f(x), pulling the sign out so like
         terms can collect. *)
      match strip_negation arg with
      | Some pos when is_odd_func f -> neg (call f [ pos ])
      | Some pos -> call f [ pos ]
      | None -> e)
  | Const _ | Var _ | Pow _ | Call _ | If _ -> e

(* Expansion works on lists of additive terms so that no subexpression is
   expanded twice; a term-count budget stops combinatorial blow-ups on
   pathological inputs (the partially expanded result is still correct). *)
let expand_budget = 2000

let rec expand e = add (terms e)

and terms e : t list =
  match e with
  | Add (ts, _) -> List.concat_map terms ts
  | Mul (fs, _) ->
      let factor_terms = List.map terms fs in
      let total =
        List.fold_left (fun acc l -> acc *! List.length l) 1 factor_terms
      in
      if total > expand_budget || total <= 0 then
        [ mul (List.map expand fs) ]
      else
        List.fold_left
          (fun acc ts ->
            List.concat_map (fun a -> List.map (fun t -> mul [ a; t ]) ts) acc)
          [ one ] factor_terms
  | Pow (b, Const n, _) when Float.is_integer n && n >= 2. && n <= 8. -> (
      let bt = terms b in
      let k = int_of_float n in
      let count = List.length bt in
      let rec pow_count i acc =
        if i = 0 then acc
        else if acc > expand_budget then acc
        else pow_count (i -! 1) (acc *! count)
      in
      if pow_count k 1 > expand_budget then [ pow (add bt) (const n) ]
      else
        let rec go i acc =
          if i = 0 then acc
          else
            go (i -! 1)
              (List.concat_map (fun a -> List.map (fun t -> mul [ a; t ]) bt) acc)
        in
        match go k [ one ] with [] -> [ one ] | ts -> ts)
  | Const _ | Var _ -> [ e ]
  | Pow _ | Call _ | If _ -> [ map_children expand e ]
