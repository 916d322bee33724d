type weights = {
  w_add : float;
  w_mul : float;
  w_div : float;
  w_pow : float;
  w_call : Expr.func -> float;
  w_cmp : float;
}

let default_call : Expr.func -> float = function
  | Sin | Cos -> 20.
  | Tan -> 25.
  | Asin | Acos | Atan -> 25.
  | Sinh | Cosh | Tanh -> 25.
  | Exp -> 20.
  | Log -> 25.
  | Sqrt -> 10.
  | Abs | Sign -> 1.
  | Atan2 -> 30.
  | Min | Max -> 1.
  | Hypot -> 15.

let default =
  {
    w_add = 1.;
    w_mul = 1.;
    w_div = 4.;
    w_pow = 50.;
    w_call = default_call;
    w_cmp = 1.;
  }

(* [branch] combines the costs of the two arms of a conditional. *)
let rec cost w ~branch (e : Expr.t) =
  let k = cost w ~branch in
  match e with
  | Const _ | Var _ -> 0.
  | Add (xs, _) ->
      float_of_int (List.length xs - 1) *. w.w_add
      +. List.fold_left (fun acc x -> acc +. k x) 0. xs
  | Mul (xs, _) ->
      float_of_int (List.length xs - 1) *. w.w_mul
      +. List.fold_left (fun acc x -> acc +. k x) 0. xs
  | Pow (b, Const n, _) when Float.is_integer n ->
      (* Integer powers lower to repeated multiplication (or one division
         for negative exponents); cost log2 |n| multiplies. *)
      let a = Float.abs n in
      let mults = if a <= 1. then 0. else Float.ceil (Float.log a /. Float.log 2.) in
      k b +. (mults *. w.w_mul) +. (if n < 0. then w.w_div else 0.)
  | Pow (b, e', _) -> k b +. k e' +. w.w_pow
  | Call (f, args, _) ->
      w.w_call f +. List.fold_left (fun acc x -> acc +. k x) 0. args
  | If (c, t, e', _) ->
      w.w_cmp +. k c.lhs +. k c.rhs +. branch (k t) (k e')

let flops ?(weights = default) e = cost weights ~branch:Float.max e

let flops_mean ?(weights = default) e =
  cost weights ~branch:(fun a b -> (a +. b) /. 2.) e
