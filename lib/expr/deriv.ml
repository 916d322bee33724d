open Expr

(* The differentiation rules, one level deep.  [partials e] builds the
   parts of compound node [e]'s derivative that no column changes (the
   outer derivative of a call, [n * b^(n-1)]'s power, a quotient's
   reciprocal denominator, the product rule's other factors) and returns
   the rule that combines them with the children's derivatives, given
   as [d].  [diff] applies it once per node reached; [jacobian] once per
   node, then once per column, so every column's derivative shares the
   node's partials physically, which {!Vm}'s DAG-aware lowering computes
   once. *)
let partials_call f args =
  let chain x outer d = mul [ outer; d x ] in
  match (f, args) with
  | Sin, [ x ] -> chain x (cos x)
  | Cos, [ x ] -> chain x (neg (sin x))
  | Tan, [ x ] -> chain x (add [ one; sqr (tan x) ])
  | Asin, [ x ] -> chain x (pow (sub one (sqr x)) (const (-0.5)))
  | Acos, [ x ] -> chain x (neg (pow (sub one (sqr x)) (const (-0.5))))
  | Atan, [ x ] -> chain x (div one (add [ one; sqr x ]))
  | Sinh, [ x ] -> chain x (call Cosh [ x ])
  | Cosh, [ x ] -> chain x (call Sinh [ x ])
  | Tanh, [ x ] -> chain x (sub one (sqr (call Tanh [ x ])))
  | Exp, [ x ] -> chain x (exp x)
  | Log, [ x ] -> chain x (div one x)
  | Sqrt, [ x ] -> chain x (div (const 0.5) (sqrt x))
  | Abs, [ x ] -> chain x (sign x)
  | Sign, [ x ] -> fun d -> mul [ zero; d x ]
  | Atan2, [ y; x ] ->
      (* d atan2(y,x) = (x dy - y dx) / (x^2 + y^2) *)
      let inv = pow (add [ sqr x; sqr y ]) minus_one in
      fun d -> mul [ sub (mul [ x; d y ]) (mul [ y; d x ]); inv ]
  | Min, [ a; b ] ->
      let c = cond a Le b in
      fun d -> if_ c (d a) (d b)
  | Max, [ a; b ] ->
      let c = cond a Ge b in
      fun d -> if_ c (d a) (d b)
  | Hypot, [ a; b ] ->
      let inv = pow (hypot a b) minus_one in
      fun d -> mul [ add [ mul [ a; d a ]; mul [ b; d b ] ]; inv ]
  | _ -> invalid_arg "Deriv.diff: malformed call"

let partials (e : Expr.t) =
  match e with
  | Const _ | Var _ -> invalid_arg "Deriv.partials: leaf"
  | Add (xs, _) -> fun d -> add (List.map d xs)
  | Mul (xs, _) ->
      (* Product rule over an n-ary product: sum over each factor
         differentiated with the others untouched.  When the factors are
         as [mul] leaves them, each term merges its derivative in instead
         of re-sorting. *)
      let product =
        if is_product xs then mul_into else fun x fs -> mul (x :: fs)
      in
      let rec others before = function
        | [] -> []
        | f :: after -> List.rev_append before after :: others (f :: before) after
      in
      let others = others [] xs in
      fun d -> add (List.map2 (fun f fs -> product (d f) fs) xs others)
  | Pow (b, Const n, _) ->
      (* d(b^n) = n * b^(n-1) * b' for constant n. *)
      let n' = const n and p = pow b (const (n -. 1.)) in
      fun d -> mul [ n'; p; d b ]
  | Pow (b, ex, _) ->
      (* General case: b^e * (e' ln b + e b'/b). *)
      let p = pow b ex and lb = log b and inv = pow b minus_one in
      fun d -> mul [ p; add [ mul [ d ex; lb ]; mul [ ex; d b; inv ] ] ]
  | Call (f, args, _) -> partials_call f args
  | If (c, t, e', _) -> fun d -> if_ c (d t) (d e')

let diff v e =
  let rec d (e : Expr.t) =
    match e with
    | Const _ -> zero
    | Var w -> if w = v then one else zero
    | _ -> partials e d
  in
  d e

(* A node's derivatives with respect to every column at once: an
   [(column, derivative)] entry, columns ascending, for each column its
   differentiated children carry, and [rest] for every other column.
   [rest] is the rules applied to the children's [rest]s — a derivative
   that reads no variable, [zero] unless constant arithmetic is
   non-finite (0 * inf is nan). *)
type grad = { entries : (int * Expr.t) array; rest : Expr.t }

let no_cols = { entries = [||]; rest = zero }

let rec find_entry entries rest c i =
  if i = Array.length entries then rest
  else
    let c', d = Array.unsafe_get entries i in
    if c' = c then d else find_entry entries rest c (succ i)

let entry g c = find_entry g.entries g.rest c 0

let is_pos_zero = function
  | Const c -> Int64.equal (Int64.bits_of_float c) 0L
  | _ -> false

let jacobian vars rows =
  let index = Hashtbl.create (Array.length vars) in
  Array.iteri
    (fun i v ->
      if Hashtbl.mem index v then
        invalid_arg ("Deriv.jacobian: duplicate variable " ^ v);
      Hashtbl.replace index v i)
    vars;
  (* Each distinct node's [grad], variables included (interned rows hold
     one node per variable), keyed on physical identity and indexed by
     the node's stored hash.  Sized for about 64 compound nodes per row
     (the bearing's interned rows have 61), so that the table grows at
     most once on the bearing. *)
  let memo =
    Expr.Phys_tbl.create (min (1 lsl 14) (max 1024 (Array.length rows lsl 6)))
  in
  let rec grad (e : Expr.t) =
    match e with
    | Const _ -> no_cols
    | _ -> (
        match Expr.Phys_tbl.find_opt memo e with
        | Some g -> g
        | None ->
            let g = node e in
            Expr.Phys_tbl.add memo e g;
            g)
  and node e =
    match e with
    | Var w -> (
        match Hashtbl.find_opt index w with
        | Some c -> { entries = [| (c, one) |]; rest = zero }
        | None -> no_cols)
    | _ -> compound e
  and compound e =
    (* The rules never differentiate an [If]'s condition. *)
    let kids = match e with If (_, t, f, _) -> [ t; f ] | _ -> children e in
    let gs = List.map (fun k -> (k, grad k)) kids in
    let cols =
      List.concat_map (fun (_, g) -> Array.to_list g.entries) gs
      |> List.map fst |> List.sort_uniq Int.compare
    in
    let deriv = partials e in
    let entries =
      Array.of_list cols
      |> Array.map (fun c -> (c, deriv (fun k -> entry (List.assq k gs) c)))
    in
    { entries; rest = deriv (fun k -> (List.assq k gs).rest) }
  in
  Array.map
    (fun e ->
      let g = grad e in
      if is_pos_zero g.rest then Array.copy g.entries
      else Array.init (Array.length vars) (fun c -> (c, entry g c)))
    rows
