open Expr

(* The differentiation rules, one level deep: [d] differentiates the
   children.  [diff] ties the knot directly; [jacobian] applies them to
   each node once per column its children carry, so both share one rule
   table. *)
let rules_call d f args =
  let chain inner outer = mul [ outer; d inner ] in
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
  | Sign, [ x ] -> mul [ zero; d x ]
  | Atan2, [ y; x ] ->
      (* d atan2(y,x) = (x dy - y dx) / (x^2 + y^2) *)
      div (sub (mul [ x; d y ]) (mul [ y; d x ])) (add [ sqr x; sqr y ])
  | Min, [ a; b ] -> if_ (cond a Le b) (d a) (d b)
  | Max, [ a; b ] -> if_ (cond a Ge b) (d a) (d b)
  | Hypot, [ a; b ] ->
      div (add [ mul [ a; d a ]; mul [ b; d b ] ]) (hypot a b)
  | _ -> invalid_arg "Deriv.diff: malformed call"

(* [product x before after] builds [mul (x :: fs)], where [fs], a
   product's factors less one, is [List.rev before @ after]. *)
let rules ~product v d (e : Expr.t) =
  match e with
  | Const _ -> zero
  | Var w -> if w = v then one else zero
  | Add xs -> add (List.map d xs)
  | Mul xs ->
      (* Product rule over an n-ary product: sum over each factor
         differentiated with the others untouched. *)
      let rec terms before = function
        | [] -> []
        | f :: after ->
            product (d f) before after :: terms (f :: before) after
      in
      add (terms [] xs)
  | Pow (b, Const n) ->
      (* d(b^n) = n * b^(n-1) * b' for constant n. *)
      mul [ const n; pow b (const (n -. 1.)); d b ]
  | Pow (b, ex) ->
      (* General case: b^e * (e' ln b + e b'/b). *)
      mul
        [
          pow b ex;
          add [ mul [ d ex; log b ]; mul [ ex; d b; pow b minus_one ] ];
        ]
  | Call (f, args) -> rules_call d f args
  | If (c, t, e') -> if_ c (d t) (d e')

let mul_cons x before after = mul ((x :: List.rev before) @ after)

let diff v e =
  let rec d e = rules ~product:mul_cons v d e in
  d e

(* Keyed on physical identity: structurally equal but distinct nodes
   are distinct keys.  [Hashtbl.hash] reads a bounded prefix of a node,
   so hashing is O(1) however large the subtree. *)
module Phys_tbl = Hashtbl.Make (struct
  type t = Expr.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* A node's derivatives with respect to every column at once: an
   [(column, derivative)] entry, columns ascending, for each column its
   differentiated children carry, and [rest] for every other column.
   [rest] is the rules applied to the children's [rest]s — a derivative
   that reads no variable, [zero] unless constant arithmetic is
   non-finite (0 * inf is nan). *)
type grad = { entries : (int * Expr.t) array; rest : Expr.t }

let no_cols = { entries = [||]; rest = zero }

let entry g c =
  match Array.find_opt (fun (c', _) -> Int.equal c c') g.entries with
  | Some (_, d) -> d
  | None -> g.rest

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
  (* Sized for about 64 compound nodes per row (the bearing has 85):
     a table resizes, re-hashing every key, past two entries per bucket,
     and on the bearing the resizes cost a tenth of the derivation. *)
  let memo =
    Phys_tbl.create (min (1 lsl 14) (max 1024 (Array.length rows lsl 6)))
  in
  let rec grad (e : Expr.t) =
    match e with
    | Const _ -> no_cols
    | Var w -> (
        match Hashtbl.find_opt index w with
        | Some c -> { entries = [| (c, one) |]; rest = zero }
        | None -> no_cols)
    | _ -> (
        match Phys_tbl.find_opt memo e with
        | Some g -> g
        | None ->
            let g = node e in
            Phys_tbl.add memo e g;
            g)
  and node e =
    (* The rules never differentiate an [If]'s condition. *)
    let kids = match e with If (_, t, f) -> [ t; f ] | _ -> children e in
    let gs = List.map (fun k -> (k, grad k)) kids in
    let cols =
      List.concat_map (fun (_, g) -> Array.to_list g.entries) gs
      |> List.map fst |> List.sort_uniq Int.compare
    in
    (* The product rule's terms are the node's own factors less one,
       plus a derivative: when those factors are as [mul] left them,
       each term merges its derivative in instead of re-sorting. *)
    let product =
      match e with
      | Mul xs when is_product xs ->
          fun x before after -> mul_into x (List.rev_append before after)
      | _ -> mul_cons
    in
    let entries =
      Array.of_list cols
      |> Array.map (fun c ->
             (c, rules ~product vars.(c) (fun k -> entry (List.assq k gs) c) e))
    in
    (* A compound node's rules never read the variable's name. *)
    { entries; rest = rules ~product "" (fun k -> (List.assq k gs).rest) e }
  in
  Array.map
    (fun e ->
      let g = grad e in
      if is_pos_zero g.rest then Array.copy g.entries
      else Array.init (Array.length vars) (fun c -> (c, entry g c)))
    rows

let gradient vars e = List.map (fun v -> (v, diff v e)) vars
