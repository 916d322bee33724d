open Expr

(* The differentiation rules, one level deep: [d] differentiates the
   children.  [diff] ties the knot directly; [differentiator] ties it
   through a memo, so both share one rule table. *)
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

let rules v d (e : Expr.t) =
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
            mul ((d f :: List.rev before) @ after) :: terms (f :: before) after
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

let diff v e =
  let rec d e = rules v d e in
  d e

(* Keyed on physical identity: structurally equal but distinct nodes
   are distinct keys.  [Hashtbl.hash] reads a bounded prefix of a node,
   so hashing is O(1) however large the subtree. *)
module Phys_tbl = Hashtbl.Make (struct
  type t = Expr.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let differentiator v =
  let memo = Phys_tbl.create 256 in
  let rec d (e : Expr.t) =
    match e with
    | Const _ | Var _ -> rules v d e
    | _ -> (
        match Phys_tbl.find_opt memo e with
        | Some r -> r
        | None ->
            let r = rules v d e in
            Phys_tbl.add memo e r;
            r)
  in
  d

let gradient vars e = List.map (fun v -> (v, diff v e)) vars
