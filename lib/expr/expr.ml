type func =
  | Sin
  | Cos
  | Tan
  | Asin
  | Acos
  | Atan
  | Sinh
  | Cosh
  | Tanh
  | Exp
  | Log
  | Sqrt
  | Abs
  | Sign
  | Atan2
  | Min
  | Max
  | Hypot

type rel = Lt | Le | Gt | Ge

type t =
  | Const of float
  | Var of string
  | Add of t list
  | Mul of t list
  | Pow of t * t
  | Call of func * t list
  | If of cond * t * t

and cond = { lhs : t; rel : rel; rhs : t }

let rank = function
  | Const _ -> 0
  | Var _ -> 1
  | Pow _ -> 2
  | Mul _ -> 3
  | Add _ -> 4
  | Call _ -> 5
  | If _ -> 6

let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Const x, Const y -> Float.compare x y
    | Var x, Var y -> String.compare x y
    | Add xs, Add ys | Mul xs, Mul ys -> compare_list xs ys
    | Pow (x1, y1), Pow (x2, y2) ->
        let c = compare x1 x2 in
        if c <> 0 then c else compare y1 y2
    | Call (f, xs), Call (g, ys) ->
        let c = Stdlib.compare f g in
        if c <> 0 then c else compare_list xs ys
    | If (c1, t1, e1), If (c2, t2, e2) ->
        let c = compare_cond c1 c2 in
        if c <> 0 then c
        else
          let c = compare t1 t2 in
          if c <> 0 then c else compare e1 e2
    | _ -> Int.compare (rank a) (rank b)

and compare_cond c1 c2 =
  let c = compare c1.lhs c2.lhs in
  if c <> 0 then c
  else
    let c = Stdlib.compare c1.rel c2.rel in
    if c <> 0 then c else compare c1.rhs c2.rhs

and compare_list xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_list xs' ys'

let equal a b = compare a b = 0

let rec hash e =
  match e with
  | Const x -> Hashtbl.hash x
  | Var s -> Hashtbl.hash s
  | Add xs -> hash_list 3 xs
  | Mul xs -> hash_list 5 xs
  | Pow (x, y) -> (7 * hash x) + (11 * hash y)
  | Call (f, xs) -> (13 * Hashtbl.hash f) + hash_list 17 xs
  | If (c, t, e') ->
      (19 * hash c.lhs)
      + (23 * Hashtbl.hash c.rel)
      + (29 * hash c.rhs) + (31 * hash t) + (37 * hash e')

and hash_list seed xs =
  List.fold_left (fun acc x -> (acc * 131) + hash x) seed xs

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rec same_nodes xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> x == y && same_nodes xs ys
  | _ -> false

(* Equality of two nodes whose children are interned: the same
   constructor and payload, constants by bits, children physically. *)
let shallow_equal a b =
  match (a, b) with
  | Const x, Const y -> bits_equal x y
  | Var x, Var y -> String.equal x y
  | Add xs, Add ys | Mul xs, Mul ys -> same_nodes xs ys
  | Pow (a1, b1), Pow (a2, b2) -> a1 == a2 && b1 == b2
  | Call (f, xs), Call (g, ys) -> f = g && same_nodes xs ys
  | If (c1, t1, e1), If (c2, t2, e2) ->
      c1.rel = c2.rel && c1.lhs == c2.lhs && c1.rhs == c2.rhs && t1 == t2
      && e1 == e2
  | _ -> false

(* Hash-consing of a forest.  Nodes are interned bottom-up into an
   open-addressing table over parallel arrays: a node's hash is built
   from its children's, so each visit hashes one level, and a node whose
   children come back unchanged is its own candidate, so a node already
   interned allocates nothing.  The walk is a tree walk (a physically
   shared subtree is visited once per parent): [Hashtbl.hash], the only
   hash of a node that does not walk it, is bounded and gives
   structurally equal copies, and many distinct nodes, one value, which
   makes a physical-identity memo slower than the walk. *)
type interner = {
  mutable hs : int array;
  mutable ns : t array;  (* [dummy] marks an empty slot *)
  mutable count : int;
  mutable h : int;  (* hash of the node [intern_go] last returned *)
}

let dummy = Var ""

let mix h =
  let h = h * 0x2545F491 in
  h lxor (h lsr 29)

let rec intern_probe it h e mask i =
  let n = Array.unsafe_get it.ns i in
  if n == dummy then begin
    it.hs.(i) <- h;
    it.ns.(i) <- e;
    it.count <- it.count + 1;
    e
  end
  else if Array.unsafe_get it.hs i = h && shallow_equal n e then n
  else intern_probe it h e mask ((i + 1) land mask)

let intern_grow it =
  let hs = it.hs and ns = it.ns in
  let n = 2 * Array.length hs in
  it.hs <- Array.make n 0;
  it.ns <- Array.make n dummy;
  let mask = n - 1 in
  Array.iteri
    (fun i e ->
      if e != dummy then
        let rec put j =
          if it.ns.(j) == dummy then begin
            it.hs.(j) <- hs.(i);
            it.ns.(j) <- e
          end
          else put ((j + 1) land mask)
        in
        put (hs.(i) land mask))
    ns

let intern_node it h e =
  if 2 * it.count >= Array.length it.hs then intern_grow it;
  let h = mix h in
  it.h <- h;
  intern_probe it h e (Array.length it.hs - 1) (h land (Array.length it.hs - 1))

let rec intern_go it e =
  match e with
  | Const _ | Var _ -> intern_node it (Hashtbl.hash e) e
  | Add xs ->
      let xs' = intern_kids it xs in
      intern_node it (it.h + 3) (if xs' == xs then e else Add xs')
  | Mul xs ->
      let xs' = intern_kids it xs in
      intern_node it (it.h + 5) (if xs' == xs then e else Mul xs')
  | Call (f, xs) ->
      let xs' = intern_kids it xs in
      intern_node it (it.h + Hashtbl.hash f) (if xs' == xs then e else Call (f, xs'))
  | Pow (a, b) ->
      let a' = intern_go it a in
      let ha = it.h in
      let b' = intern_go it b in
      intern_node it ((ha * 31) + it.h + 7)
        (if a' == a && b' == b then e else Pow (a', b'))
  | If (c, t, f) ->
      let l = intern_go it c.lhs in
      let h = it.h in
      let r = intern_go it c.rhs in
      let h = (h * 31) + it.h in
      let t' = intern_go it t in
      let h = (h * 31) + it.h in
      let f' = intern_go it f in
      let h = (h * 31) + it.h + Hashtbl.hash c.rel in
      intern_node it h
        (if l == c.lhs && r == c.rhs && t' == t && f' == f then e
         else If ({ c with lhs = l; rhs = r }, t', f'))

(* The interned list, [xs] itself if every element came back unchanged;
   leaves the combined hash of the elements in [it.h]. *)
and intern_kids it xs =
  match xs with
  | [] ->
      it.h <- 0;
      xs
  | x :: rest ->
      let x' = intern_go it x in
      let hx = it.h in
      let rest' = intern_kids it rest in
      it.h <- (it.h * 31) + hx;
      if x' == x && rest' == rest then xs else x' :: rest'

let intern rows =
  let it = { hs = Array.make 1024 0; ns = Array.make 1024 dummy; count = 0; h = 0 } in
  Array.map (intern_go it) rows

let const x = Const x
let int n = Const (float_of_int n)
let var s = Var s
let zero = Const 0.
let one = Const 1.
let two = Const 2.
let minus_one = Const (-1.)
let pi = Const (Float.pi)
let is_const = function Const _ -> true | _ -> false

(* Split a product term into (numeric coefficient, remaining factors).  Used
   by [add] to collect like terms: 2*x and 3*x merge into 5*x. *)
let coeff_split = function
  | Const c -> (c, [])
  | Mul (Const c :: rest) -> (c, rest)
  | Mul fs -> (1., fs)
  | e -> (1., [ e ])

(* Split a factor into (base, numeric exponent).  Used by [mul] to collect
   powers: x * x^2 merges into x^3. *)
let power_split = function
  | Pow (b, Const n) -> (b, n)
  | e -> (e, 1.)

let eval_pow b n =
  if n = 2. then b *. b
  else if n = -1. then 1. /. b
  else if n = 1. then b
  else if n = 0. then 1.
  else Float.pow b n

let rec sorted = function
  | a :: (b :: _ as rest) -> compare a b <= 0 && sorted rest
  | _ -> true

(* A like term or factor as [add] and [mul] collect it: its key, its
   weight, the position of its first occurrence and what the caller
   keeps of that occurrence ([mul] the factor itself, [add] nothing). *)
type ('k, 'o) item = { key : 'k; weight : float; pos : int; first : 'o }

(* Like-term collection with no per-call table.  [items] are in
   occurrence order; a stable sort on the key keeps equal keys in that
   order, so each run of equal keys sums its weights left to right and
   keeps its first occurrence's key, position and [first]. *)
let collect cmp items =
  let rec runs = function
    | it :: it' :: rest when cmp it.key it'.key = 0 ->
        let rec absorb w = function
          | it' :: rest when cmp it.key it'.key = 0 ->
              absorb (w +. it'.weight) rest
          | rest -> { it with weight = w } :: runs rest
        in
        absorb (it.weight +. it'.weight) rest
    | it :: rest -> it :: runs rest
    | [] -> []
  in
  runs (List.stable_sort (fun a b -> cmp a.key b.key) items)

(* Sort the rebuilt [(operand, position)] pairs, breaking ties by
   position: the folded constant (position -1) first, then
   first-occurrence order. *)
let sort_terms all =
  let by_term (a, p) (b, q) =
    let c = compare a b in
    if c <> 0 then c else Int.compare p q
  in
  List.map fst (List.sort by_term all)

(* [pow b (Const n)] is [Pow (b, Const n)]: none of [pow]'s
   simplifications applies. *)
let pow_keeps b n =
  n <> 0. && n <> 1.
  &&
  match b with
  | Const c -> c <> 1. && not (Float.is_finite (eval_pow c n))
  | Pow (_, Const _) -> false
  | _ -> true

let rec add terms =
  let konst = ref 0. and items = ref [] and pos = ref 0 in
  (* Collect like terms keyed by their non-constant factor list. *)
  let record e =
    match coeff_split e with
    | c, [] -> konst := !konst +. c
    | c, fs ->
        items := { key = fs; weight = c; pos = !pos; first = () } :: !items;
        incr pos
  in
  List.iter (function Add xs -> List.iter record xs | e -> record e) terms;
  let rebuilt =
    collect compare_list (List.rev !items)
    |> List.filter_map (fun { key = fs; weight = c; pos = p; _ } ->
           if c = 0. then None
           else if c = 1. then Some (mul_nocollect fs, p)
           else Some (mul_nocollect (Const c :: fs), p))
  in
  match
    sort_terms (if !konst = 0. then rebuilt else (Const !konst, -1) :: rebuilt)
  with
  | [] -> zero
  | [ e ] -> e
  | es -> Add es

(* Rebuild a product from factors already in collected form.  A stable
   sort leaves a sorted list as it is, so only an unsorted one is
   sorted. *)
and mul_nocollect = function
  | [] -> one
  | [ e ] -> e
  | es -> Mul (if sorted es then es else List.sort compare es)

and mul factors =
  let flat_iter f = List.iter (function Mul xs -> List.iter f xs | e -> f e) in
  (* Fold the constants first: a zero product returns before any
     sorting. *)
  let konst = ref 1. in
  flat_iter (function Const c -> konst := !konst *. c | _ -> ()) factors;
  if !konst = 0. then zero
  else begin
    (* Collect powers keyed by their base. *)
    let items = ref [] and pos = ref 0 in
    flat_iter
      (function
        | Const _ -> ()
        | e ->
            let b, n = power_split e in
            items := { key = b; weight = n; pos = !pos; first = e } :: !items;
            incr pos)
      factors;
    let rebuilt =
      collect compare (List.rev !items)
      |> List.filter_map (fun { key = b; weight = n; pos = p; first = e } ->
             if n = 0. then None
             else if n = 1. then Some (b, p)
             else Some (power_as e b n, p))
    in
    match
      sort_terms (if !konst = 1. then rebuilt else (Const !konst, -1) :: rebuilt)
    with
    | [] -> one
    | [ e ] -> e
    | es -> Mul es
  end

(* [pow b (Const n)], or [e] itself when it is that power. *)
and power_as e b n =
  match e with
  | Pow (b', Const n') when b' == b && bits_equal n n' && pow_keeps b n -> e
  | _ -> pow b (Const n)

and pow base expo =
  match (base, expo) with
  | _, Const 0. -> one
  | _, Const 1. -> base
  | Const 1., _ -> one
  | Const b, Const n ->
      let r = eval_pow b n in
      if Float.is_finite r then Const r else Pow (base, expo)
  | Pow (b, Const m), Const n -> pow b (Const (m *. n))
  | _ -> Pow (base, expo)

(* A non-constant factor as [mul] rebuilds it: its base, raised to its
   exponent unless that is 1; the factor itself if that is what [mul]
   would build. *)
let rebuilt f =
  let b, n = power_split f in
  if n = 1. then b else power_as f b n

(* Every factor but a leading constant is its own [rebuilt], which makes
   the [is_product] factors [mul_into] passes through unchanged. *)
let is_product fs =
  match mul fs with
  | Mul gs ->
      List.compare_lengths fs gs = 0
      && List.for_all2
           (fun f g ->
             match (f, g) with
             | Const a, Const b -> bits_equal a b
             | Const _, _ | _, Const _ -> false
             | _ -> compare f g = 0 && rebuilt f == f)
           fs gs
  | _ -> false

(* [mul (x :: fs)] for [fs] a sublist of an [is_product] list: at most
   a leading constant [c], then factors strictly sorted, with distinct
   bases, each its own [rebuilt].  So [mul]'s constant is [1. *. c]
   (times [x] first, if [x] is a constant), its like-term collection
   merges nothing unless [x]'s base is among [fs]'s, and its sorts leave
   [fs]'s factors in order: it remains to insert [x]'s factor ahead of
   every factor it does not exceed ([x] comes first, so it wins ties).
   A product [x] or a like base goes through [mul]. *)
let mul_into x fs =
  let konst, rest =
    match fs with Const c :: rest -> (1. *. c, rest) | _ -> (1., fs)
  in
  let finish konst ts =
    match if konst = 1. then ts else Const konst :: ts with
    | [] -> one
    | [ e ] -> e
    | es -> Mul es
  in
  match x with
  | Mul _ -> mul (x :: fs)
  | Const cx ->
      let konst =
        match fs with Const c :: _ -> 1. *. cx *. c | _ -> 1. *. cx
      in
      if konst = 0. then zero else finish konst rest
  | _ -> (
      let bx, nx = power_split x in
      let like f =
        match f with
        | Const _ -> true
        | _ -> compare (fst (power_split f)) bx = 0
      in
      if nx = 0. || konst = 0. || List.exists like rest then mul (x :: fs)
      else
        match rebuilt x with
        | Const _ -> mul (x :: fs)
        | tx ->
            let rec insert = function
              | [] -> [ tx ]
              | f :: fs' as fs ->
                  if compare tx f <= 0 then tx :: fs else f :: insert fs'
            in
            finish konst (insert rest))

let neg e = mul [ minus_one; e ]
let sub a b = add [ a; neg b ]
let div a b = mul [ a; pow b minus_one ]
let powi b n = pow b (int n)
let sqr e = powi e 2

let func_name = function
  | Sin -> "sin"
  | Cos -> "cos"
  | Tan -> "tan"
  | Asin -> "asin"
  | Acos -> "acos"
  | Atan -> "atan"
  | Sinh -> "sinh"
  | Cosh -> "cosh"
  | Tanh -> "tanh"
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Abs -> "abs"
  | Sign -> "sign"
  | Atan2 -> "atan2"
  | Min -> "min"
  | Max -> "max"
  | Hypot -> "hypot"

let func_arity = function
  | Atan2 | Min | Max | Hypot -> 2
  | Sin | Cos | Tan | Asin | Acos | Atan | Sinh | Cosh | Tanh | Exp | Log
  | Sqrt | Abs | Sign ->
      1

let all_funcs =
  [
    Sin; Cos; Tan; Asin; Acos; Atan; Sinh; Cosh; Tanh; Exp; Log; Sqrt; Abs;
    Sign; Atan2; Min; Max; Hypot;
  ]

let func_of_name s = List.find_opt (fun f -> func_name f = s) all_funcs
let rel_name = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let eval_func f args =
  match (f, args) with
  | Sin, [ x ] -> Float.sin x
  | Cos, [ x ] -> Float.cos x
  | Tan, [ x ] -> Float.tan x
  | Asin, [ x ] -> Float.asin x
  | Acos, [ x ] -> Float.acos x
  | Atan, [ x ] -> Float.atan x
  | Sinh, [ x ] -> Float.sinh x
  | Cosh, [ x ] -> Float.cosh x
  | Tanh, [ x ] -> Float.tanh x
  | Exp, [ x ] -> Float.exp x
  | Log, [ x ] -> Float.log x
  | Sqrt, [ x ] -> Float.sqrt x
  | Abs, [ x ] -> Float.abs x
  | Sign, [ x ] -> if x > 0. then 1. else if x < 0. then -1. else 0.
  | Atan2, [ y; x ] -> Float.atan2 y x
  | Min, [ x; y ] -> Float.min x y
  | Max, [ x; y ] -> Float.max x y
  | Hypot, [ x; y ] -> Float.hypot x y
  | _ ->
      invalid_arg
        (Printf.sprintf "Expr.eval_func: %s applied to %d arguments"
           (func_name f) (List.length args))

let eval_rel r a b =
  match r with Lt -> a < b | Le -> a <= b | Gt -> a > b | Ge -> a >= b

let call f args =
  if List.length args <> func_arity f then
    invalid_arg
      (Printf.sprintf "Expr.call: %s expects %d arguments" (func_name f)
         (func_arity f));
  if List.for_all is_const args then
    let r =
      eval_func f
        (List.map (function Const c -> c | _ -> assert false) args)
    in
    if Float.is_finite r then Const r else Call (f, args)
  else Call (f, args)

let sin x = call Sin [ x ]
let cos x = call Cos [ x ]
let tan x = call Tan [ x ]
let exp x = call Exp [ x ]
let log x = call Log [ x ]
let sqrt x = call Sqrt [ x ]
let abs x = call Abs [ x ]
let sign x = call Sign [ x ]
let atan2 y x = call Atan2 [ y; x ]
let hypot x y = call Hypot [ x; y ]
let min_e x y = call Min [ x; y ]
let max_e x y = call Max [ x; y ]
let cond lhs rel rhs = { lhs; rel; rhs }

let if_ c t e =
  match (c.lhs, c.rhs) with
  | Const a, Const b -> if eval_rel c.rel a b then t else e
  | _ -> if equal t e then t else If (c, t, e)

let ( + ) = fun a b -> add [ a; b ]
let ( - ) = sub
let ( * ) = fun a b -> mul [ a; b ]
let ( / ) = div
let ( ** ) = powi
let ( ~- ) = neg

let children = function
  | Const _ | Var _ -> []
  | Add xs | Mul xs | Call (_, xs) -> xs
  | Pow (a, b) -> [ a; b ]
  | If (c, t, e) -> [ c.lhs; c.rhs; t; e ]

let map_children f = function
  | (Const _ | Var _) as e -> e
  | Add xs -> add (List.map f xs)
  | Mul xs -> mul (List.map f xs)
  | Pow (a, b) -> pow (f a) (f b)
  | Call (g, xs) -> call g (List.map f xs)
  | If (c, t, e) ->
      if_ { lhs = f c.lhs; rel = c.rel; rhs = f c.rhs } (f t) (f e)

(* Order-preserving rebuilding: the raw constructors, so n-ary operand
   lists are not re-sorted (the smart constructors would), keeping
   left-to-right float folds associated exactly as the input. *)
let replace_children e kids =
  match (e, kids) with
  | (Const _ | Var _), [] -> e
  | Add _, xs -> Add xs
  | Mul _, xs -> Mul xs
  | Pow _, [ a; b ] -> Pow (a, b)
  | Call (g, _), xs -> Call (g, xs)
  | If (c, _, _), [ l; r; t; e' ] -> If ({ c with lhs = l; rhs = r }, t, e')
  | _ -> invalid_arg "Expr.replace_children: wrong number of children"

let rec map_exact f e =
  match f e with Some e' -> e' | None -> map_exact_children f e

and map_exact_children f e =
  replace_children e (List.map (map_exact f) (children e))

let rec fold f acc e = List.fold_left (fold f) (f acc e) (children e)

let vars e =
  let module S = Set.Make (String) in
  fold (fun s e -> match e with Var v -> S.add v s | _ -> s) S.empty e
  |> S.elements

let mem_var v e =
  let exception Found in
  try
    fold (fun () e -> match e with Var w when w = v -> raise Found | _ -> ()) () e;
    false
  with Found -> true

let size e = fold (fun n _ -> Stdlib.( + ) n 1) 0 e

let rec depth e =
  match children e with
  | [] -> 1
  | cs -> Stdlib.( + ) 1 (List.fold_left (fun m c -> Stdlib.max m (depth c)) 0 cs)

let pp_float ppf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Fmt.pf ppf "%d" (int_of_float x)
  else Fmt.pf ppf "%.12g" x

(* Precedence levels: 0 sum, 1 product, 2 unary minus, 3 power, 4 atom. *)
let rec pp_prec prec ppf e =
  let paren p body =
    if Stdlib.( > ) prec p then Fmt.pf ppf "(%t)" body else body ppf
  in
  match e with
  | Const x when x < 0. -> paren 1 (fun ppf -> Fmt.pf ppf "%a" pp_float x)
  | Const x -> pp_float ppf x
  | Var v -> Fmt.string ppf v
  | Add terms ->
      paren 0 (fun ppf ->
          List.iteri
            (fun i t ->
              match coeff_split t with
              | c, fs when c < 0. && Stdlib.( > ) i 0 ->
                  Fmt.pf ppf " - %a" (pp_prec 1)
                    (if c = -1. && fs <> [] then mul_nocollect fs
                     else mul_nocollect (Const (Float.neg c) :: fs))
              | _ ->
                  if Stdlib.( > ) i 0 then Fmt.pf ppf " + ";
                  pp_prec 1 ppf t)
            terms)
  | Mul (Const (-1.) :: rest) ->
      paren 2 (fun ppf -> Fmt.pf ppf "-%a" (pp_prec 2) (mul_nocollect rest))
  | Mul factors ->
      paren 1 (fun ppf ->
          let num, den =
            List.partition
              (function Pow (_, Const n) when n < 0. -> false | _ -> true)
              factors
          in
          let pp_prod ppf = function
            | [] -> Fmt.string ppf "1"
            | fs ->
                List.iteri
                  (fun i f ->
                    if Stdlib.( > ) i 0 then Fmt.pf ppf "*";
                    pp_prec 3 ppf f)
                  fs
          in
          if den = [] then pp_prod ppf num
          else
            let inverted =
              List.map
                (function
                  | Pow (b, Const n) -> pow b (Const (Float.neg n))
                  | _ -> assert false)
                den
            in
            Fmt.pf ppf "%a/%a" pp_prod num (pp_prec 3)
              (match inverted with [ d ] -> d | ds -> mul_nocollect ds))
  | Pow (b, Const n) when n < 0. ->
      paren 1 (fun ppf ->
          Fmt.pf ppf "1/%a" (pp_prec 3) (pow b (Const (Float.neg n))))
  | Pow (b, e') ->
      paren 3 (fun ppf -> Fmt.pf ppf "%a^%a" (pp_prec 4) b (pp_prec 4) e')
  | Call (f, args) ->
      Fmt.pf ppf "%s(%a)" (func_name f)
        (Fmt.list ~sep:(Fmt.any ", ") (pp_prec 0))
        args
  | If (c, t, e') ->
      paren 0 (fun ppf ->
          Fmt.pf ppf "if %a %s %a then %a else %a" (pp_prec 0) c.lhs
            (rel_name c.rel) (pp_prec 0) c.rhs (pp_prec 0) t (pp_prec 0) e')

let pp = pp_prec 0
