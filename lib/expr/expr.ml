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
  | Add of t list * int
  | Mul of t list * int
  | Pow of t * t * int
  | Call of func * t list * int
  | If of cond * t * t * int

and cond = { lhs : t; rel : rel; rhs : t }

let rank = function
  | Const _ -> 0
  | Var _ -> 1
  | Pow _ -> 2
  | Mul _ -> 3
  | Add _ -> 4
  | Call _ -> 5
  | If _ -> 6

(* The top bit of a stored hash says whether the node's subtree holds
   an [If] ({!has_if}); [finish] leaves it clear, and so do leaves. *)
let if_bit = 1 lsl 61

(* A compound node's hash is stored in it, built from its children's
   when the node is built; a leaf hashes on demand.  Hashes are mixed
   ([finish]) so that their low bits, which the memos' tables index by,
   depend on every bit of the payload and of every child. *)
let[@inline] finish h =
  let h = (h lxor (h lsr 32)) * 0x3243F6A8885A308D in
  (h lxor (h lsr 29)) land (if_bit - 1)

(* A leaf's hash is left unmixed: its parent's [finish] mixes it.
   [-0.] and [0.] hash alike, and so do all NaNs: [equal] does not tell
   them apart. *)
let hash_float x =
  if x = 0. then 0
  else if Float.is_nan x then 1
  else
    let b = Int64.bits_of_float x in
    Int64.to_int b lxor Int64.to_int (Int64.shift_right_logical b 29)

(* At most three loads for a name of up to 16 bytes: overlapping words
   at both ends. *)
let hash_string s =
  let n = String.length s in
  let word i = Int64.to_int (String.get_int64_le s i) in
  let half i = Int32.to_int (String.get_int32_le s i) in
  if n >= 8 then begin
    let h = ref (n + word (n - 8)) and i = ref 0 in
    while !i < n - 8 do
      h := (!h * 0x100000001B3) + word !i;
      i := !i + 8
    done;
    !h
  end
  else if n >= 4 then (n + (half 0 * 0x100000001B3)) lxor half (n - 4)
  else
    let h = ref n in
    for i = 0 to n - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get s i)
    done;
    !h

let hash = function
  | Const x -> hash_float x land (if_bit - 1)
  | Var s -> hash_string s land (if_bit - 1)
  | Add (_, h) | Mul (_, h) | Pow (_, _, h) | Call (_, _, h) | If (_, _, _, h)
    ->
      h

let has_if e = hash e land if_bit <> 0
let[@inline] step acc h = (acc * 0x100000001B3) + h

let rec hash_list acc ifs = function
  | [] -> finish acc lor ifs
  | x :: xs ->
      let h = hash x in
      hash_list (step acc h) (ifs lor (h land if_bit)) xs

let mk_add xs = Add (xs, hash_list 3 0 xs)
let mk_mul xs = Mul (xs, hash_list 5 0 xs)
let mk_pow a b =
  let ha = hash a and hb = hash b in
  Pow (a, b, ((ha lor hb) land if_bit) lor finish (step (step 7 ha) hb))
let func_tag = function
  | Sin -> 0 | Cos -> 1 | Tan -> 2 | Asin -> 3 | Acos -> 4 | Atan -> 5
  | Sinh -> 6 | Cosh -> 7 | Tanh -> 8 | Exp -> 9 | Log -> 10 | Sqrt -> 11
  | Abs -> 12 | Sign -> 13 | Atan2 -> 14 | Min -> 15 | Max -> 16 | Hypot -> 17
[@@ocamlformat "disable"]

let mk_call f xs = Call (f, xs, hash_list (func_tag f + 17) 0 xs)

let mk_if c t e =
  let rel = match c.rel with Lt -> 0 | Le -> 1 | Gt -> 2 | Ge -> 3 in
  If (c, t, e, if_bit lor hash_list (rel + 37) 0 [ c.lhs; c.rhs; t; e ])

let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Const x, Const y -> Float.compare x y
    | Var x, Var y -> String.compare x y
    | Add (xs, _), Add (ys, _) | Mul (xs, _), Mul (ys, _) -> compare_list xs ys
    | Pow (x1, y1, _), Pow (x2, y2, _) ->
        let c = compare x1 x2 in
        if c <> 0 then c else compare y1 y2
    | Call (f, xs, _), Call (g, ys, _) ->
        let c = Stdlib.compare f g in
        if c <> 0 then c else compare_list xs ys
    | If (c1, t1, e1, _), If (c2, t2, e2, _) ->
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

(* [compare a b = 0], rejecting on the stored hashes before any walk. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Const x, Const y -> Float.equal x y
  | Var x, Var y -> String.equal x y
  | Add (xs, h), Add (ys, h') | Mul (xs, h), Mul (ys, h') ->
      h = h' && List.equal equal xs ys
  | Pow (x1, y1, h), Pow (x2, y2, h') -> h = h' && equal x1 x2 && equal y1 y2
  | Call (f, xs, h), Call (g, ys, h') -> h = h' && f = g && List.equal equal xs ys
  | If (c1, t1, e1, h), If (c2, t2, e2, h') ->
      h = h' && c1.rel = c2.rel && equal c1.lhs c2.lhs && equal c1.rhs c2.rhs
      && equal t1 t2 && equal e1 e2
  | _ -> false

let equal_list xs ys = List.equal equal xs ys
let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rec same_nodes xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> x == y && same_nodes xs ys
  | _ -> false

(* Equality of two nodes whose children are interned: the same
   constructor and payload, constants by bits, children physically. *)
let shallow_equal a b =
  a == b
  ||
  match (a, b) with
  | Const x, Const y -> bits_equal x y
  | Var x, Var y -> String.equal x y
  | Add (xs, _), Add (ys, _) | Mul (xs, _), Mul (ys, _) -> same_nodes xs ys
  | Pow (a1, b1, _), Pow (a2, b2, _) -> a1 == a2 && b1 == b2
  | Call (f, xs, _), Call (g, ys, _) -> f = g && same_nodes xs ys
  | If (c1, t1, e1, _), If (c2, t2, e2, _) ->
      c1.rel = c2.rel && c1.lhs == c2.lhs && c1.rhs == c2.rhs && t1 == t2
      && e1 == e2
  | _ -> false

(* Open addressing with linear probing over parallel arrays, at most
   half full, keyed on the stored hash: a probe compares keys with
   [equal], which reads no more than a node's fields.  The memo of a
   DAG walk pays little more per node than a walk of a tree. *)
module Table (K : sig
  val equal : t -> t -> bool
end) =
struct
  type key = t

  type 'a t = {
    mutable keys : key array;  (* [free] marks an empty slot *)
    mutable vals : 'a array;  (* [[||]] until the first value *)
    mutable used : int array;  (* the filled slots, in the order filled *)
    mutable count : int;
  }

  let free = Var ""

  (* Room for [n] keys: a power of two at least twice [n]. *)
  let room n =
    let size = ref 16 in
    while !size < 2 * n do
      size := 2 * !size
    done;
    Array.make !size free

  let create n =
    let keys = room n in
    { keys; vals = [||]; used = Array.make (Array.length keys / 2) 0; count = 0 }

  let rec slot keys e mask i =
    let k = Array.unsafe_get keys i in
    if k == free || K.equal k e then i
    else slot keys e mask ((i + 1) land mask)

  let index keys e =
    let mask = Array.length keys - 1 in
    slot keys e mask (hash e land mask)

  let find_opt t e =
    let i = index t.keys e in
    if Array.unsafe_get t.keys i != free then Some t.vals.(i) else None

  let find_or t e default =
    if t.count = 0 then default
    else
      let i = index t.keys e in
      if Array.unsafe_get t.keys i != free then t.vals.(i) else default

  (* Grow fourfold once [e] would fill half of the slots, and return
     [e]'s slot. *)
  let slot_for t e =
    let n = Array.length t.keys in
    if 2 * (t.count + 1) > n then begin
      let keys = t.keys and vals = t.vals and used = t.used in
      t.keys <- Array.make (4 * n) free;
      t.vals <- (if vals == [||] then vals else Array.make (4 * n) vals.(0));
      t.used <- Array.make (2 * n) 0;
      for u = 0 to t.count - 1 do
        let k = keys.(used.(u)) in
        let j = index t.keys k in
        t.keys.(j) <- k;
        if vals != [||] then t.vals.(j) <- vals.(used.(u));
        t.used.(u) <- j
      done
    end;
    index t.keys e

  let fill t i e =
    t.keys.(i) <- e;
    t.used.(t.count) <- i;
    t.count <- t.count + 1

  let add_new t e v =
    let i = slot_for t e in
    Array.unsafe_get t.keys i == free
    && begin
      if t.vals == [||] then t.vals <- Array.make (Array.length t.keys) v;
      t.vals.(i) <- v;
      fill t i e;
      true
    end

  let add t e v = ignore (add_new t e v)

  (* Emptying costs what filling did: only the filled slots are freed. *)
  let clear t =
    for u = 0 to t.count - 1 do
      t.keys.(t.used.(u)) <- free
    done;
    t.vals <- [||];
    t.count <- 0

  (* The key equal to [e]; [e] itself, added, if there is none. *)
  let share t e =
    let i = slot_for t e in
    let k = Array.unsafe_get t.keys i in
    if k != free then k
    else begin
      fill t i e;
      e
    end

  (* The key equal to [e], or [free]. *)
  let find t e = Array.unsafe_get t.keys (index t.keys e)

  let visit t e =
    let i = slot_for t e in
    Array.unsafe_get t.keys i == free
    && begin
      fill t i e;
      true
    end
end

module Phys_tbl = Table (struct
  let equal = ( == )
end)

module Interned = Table (struct
  let equal = shallow_equal
end)

(* Hash-consing of a forest, a DAG walk: [interned] holds one node per
   class of [shallow_equal] nodes, and [seen] maps each node reached
   that is not its class's node to that node, so a shared node is
   walked once.  A node whose children come back unchanged is its own
   candidate; one rebuilt over interned children keeps its stored hash,
   since its children are equal to the ones it replaces.  A node found
   in [interned] has interned children, so it is its own class's node
   or equal to it: a node not walked yet shares no child with an
   interned node unless that child is interned. *)
let intern rows =
  let seen = Phys_tbl.create 64 and interned = Interned.create 4096 in
  let rec go e =
    match e with
    | Const _ | Var _ -> Interned.share interned e
    | _ -> (
        let k = Interned.find interned e in
        if k != Interned.free then k
        else
          match Phys_tbl.find_opt seen e with
          | Some e' -> e'
          | None ->
              let e' = Interned.share interned (rebuild e) in
              if e' != e then Phys_tbl.add seen e e';
              e')
  and rebuild e =
    match e with
    | Const _ | Var _ -> e
    | Add (xs, h) ->
        let xs' = kids xs in
        if xs' == xs then e else Add (xs', h)
    | Mul (xs, h) ->
        let xs' = kids xs in
        if xs' == xs then e else Mul (xs', h)
    | Call (f, xs, h) ->
        let xs' = kids xs in
        if xs' == xs then e else Call (f, xs', h)
    | Pow (a, b, h) ->
        let a' = go a and b' = go b in
        if a' == a && b' == b then e else Pow (a', b', h)
    | If (c, t, f, h) ->
        let l = go c.lhs and r = go c.rhs and t' = go t and f' = go f in
        if l == c.lhs && r == c.rhs && t' == t && f' == f then e
        else If ({ c with lhs = l; rhs = r }, t', f', h)
  (* The interned list, [xs] itself if every element came back
     unchanged. *)
  and kids xs =
    match xs with
    | [] -> xs
    | x :: rest ->
        let x' = go x in
        let rest' = kids rest in
        if x' == x && rest' == rest then xs else x' :: rest'
  in
  Array.map go rows

let const x = Const x
let int n = Const (float_of_int n)
let var s = Var s
let zero = Const 0.
let one = Const 1.
let minus_one = Const (-1.)
let is_const = function Const _ -> true | _ -> false

(* Split a product term into (numeric coefficient, remaining factors).  Used
   by [add] to collect like terms: 2*x and 3*x merge into 5*x. *)
let coeff_split = function
  | Const c -> (c, [])
  | Mul (Const c :: rest, _) -> (c, rest)
  | Mul (fs, _) -> (1., fs)
  | e -> (1., [ e ])

(* Split a factor into (base, numeric exponent).  Used by [mul] to collect
   powers: x * x^2 merges into x^3. *)
let power_split = function
  | Pow (b, Const n, _) -> (b, n)
  | e -> (e, 1.)

let base = function Pow (b, Const _, _) -> b | e -> e

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
   occurrence order.  A few items whose keys are pairwise unequal, which
   the stored hashes mostly tell without a walk, are each their own
   term.  Otherwise a stable sort on the key keeps equal keys in that
   order, so each run of equal keys sums its weights left to right and
   keeps its first occurrence's key, position and [first]. *)
let collect cmp eq items =
  let rec unequal k = function
    | [] -> true
    | it :: rest -> (not (eq k it.key)) && unequal k rest
  in
  let rec distinct = function
    | [] -> true
    | it :: rest -> unequal it.key rest && distinct rest
  in
  let rec runs = function
    | it :: it' :: rest when eq it.key it'.key ->
        let rec absorb w = function
          | it' :: rest when eq it.key it'.key -> absorb (w +. it'.weight) rest
          | rest -> { it with weight = w } :: runs rest
        in
        absorb (it.weight +. it'.weight) rest
    | it :: rest -> it :: runs rest
    | [] -> []
  in
  if List.compare_length_with items 8 <= 0 && distinct items then items
  else
  runs (List.stable_sort (fun a b -> cmp a.key b.key) items)

(* Sort the rebuilt [(operand, position)] pairs, breaking ties by
   position: the folded constant (position -1) first, then
   first-occurrence order.  Pairs already in that order, as a product's
   rebuilt factors mostly are, are left as they are. *)
let sort_terms all =
  let by_term (a, p) (b, q) =
    let c = compare a b in
    if c <> 0 then c else Int.compare p q
  in
  let rec in_order = function
    | x :: (y :: _ as rest) -> by_term x y < 0 && in_order rest
    | _ -> true
  in
  List.map fst (if in_order all then all else List.sort by_term all)

(* [pow b (Const n)] is [Pow (b, Const n, _)]: none of [pow]'s
   simplifications applies. *)
let pow_keeps b n =
  n <> 0. && n <> 1.
  &&
  match b with
  | Const c -> c <> 1. && not (Float.is_finite (eval_pow c n))
  | Pow (_, Const _, _) -> false
  | _ -> true

(* Two terms in [sort_terms]'s order, built by [mk]; [unit] if
   neither. *)
let ordered mk unit x y =
  match (x, y) with
  | Some x, Some y -> if compare x y <= 0 then mk [ x; y ] else mk [ y; x ]
  | Some e, None | None, Some e -> e
  | None, None -> unit

(* Fast paths, each building what the item lists would.  [add] and
   [mul] fold their constants in order, as the lists do; when at most
   two other operands remain, none a sum in a sum or a product in a
   product, the result is the folded constant (unless it is the unit)
   and those operands' terms in order, or, for two operands with equal
   keys and no constant, what the lists collect. *)
let rec add terms =
  let rec scan k a b = function
    | Const c :: rest -> scan (k +. c) a b rest
    | ((Mul _ | Var _ | Pow _ | Call _ | If _) as e) :: rest -> (
        match (a, b) with
        | None, _ -> scan k (Some e) b rest
        | Some _, None -> scan k a (Some e) rest
        | Some _, Some _ -> add_items terms)
    | Add _ :: _ -> add_items terms
    | [] -> (
        let term e =
          let c, fs = coeff_split e in
          sum_term c fs
        in
        let konst = if k = 0. then None else Some (Const k) in
        match (a, b) with
        | None, _ -> Option.value ~default:zero konst
        | Some a, None -> ordered mk_add zero konst (term a)
        | Some a, Some b ->
            if konst <> None || equal_list (snd (coeff_split a)) (snd (coeff_split b))
            then add_items terms
            else ordered mk_add zero (term a) (term b))
  in
  scan 0. None None terms

and add_items terms =
  let konst = ref 0. and items = ref [] and pos = ref 0 in
  (* Collect like terms keyed by their non-constant factor list. *)
  let record e =
    match coeff_split e with
    | c, [] -> konst := !konst +. c
    | c, fs ->
        items := { key = fs; weight = c; pos = !pos; first = () } :: !items;
        incr pos
  in
  List.iter (function Add (xs, _) -> List.iter record xs | e -> record e) terms;
  let rebuilt =
    collect compare_list equal_list (List.rev !items)
    |> List.filter_map (fun { key = fs; weight = c; pos = p; _ } ->
           match sum_term c fs with Some t -> Some (t, p) | None -> None)
  in
  match
    sort_terms (if !konst = 0. then rebuilt else (Const !konst, -1) :: rebuilt)
  with
  | [] -> zero
  | [ e ] -> e
  | es -> mk_add es

(* The term of like terms whose coefficients sum to [c]. *)
and sum_term c fs =
  if c = 0. then None
  else if c = 1. then Some (mul_nocollect fs)
  else Some (mul_nocollect (Const c :: fs))

(* Rebuild a product from factors already in collected form.  A stable
   sort leaves a sorted list as it is, so only an unsorted one is
   sorted. *)
and mul_nocollect = function
  | [] -> one
  | [ e ] -> e
  | es -> mk_mul (if sorted es then es else List.sort compare es)

and mul factors =
  let rec scan k a b = function
    | Const c :: rest -> scan (k *. c) a b rest
    | ((Add _ | Var _ | Pow _ | Call _ | If _) as e) :: rest -> (
        match (a, b) with
        | None, _ -> scan k (Some e) b rest
        | Some _, None -> scan k a (Some e) rest
        | Some _, Some _ -> mul_items factors)
    | Mul (xs, _) :: rest when a = None && List.for_all is_const rest ->
        (* One product's factors, times constants: when they are as [mul]
           leaves them (in order, bases distinct, each its own
           [rebuilt]), they are their own rebuilt factors. *)
        let konst k = function Const c -> k *. c | _ -> k in
        let k = List.fold_left konst (List.fold_left konst k xs) rest in
        let fs = List.filter (fun f -> not (is_const f)) xs in
        if k = 0. then zero
        else if fs = [] || not (in_order fs) then mul_items factors
        else (
          match ((if k = 1. then fs else Const k :: fs) : t list) with
          | [ f ] -> f
          | fs -> mk_mul fs)
    | _ :: _ -> mul_items factors
    | [] -> (
        let term e =
          let b, n = power_split e in
          factor e b n
        in
        let konst = if k = 1. then None else Some (Const k) in
        match (a, b) with
        | _ when k = 0. -> zero
        | None, _ -> Option.value ~default:one konst
        | Some a, None -> ordered mk_mul one konst (term a)
        | Some a, Some b ->
            if konst <> None || equal (base a) (base b) then mul_items factors
            else ordered mk_mul one (term a) (term b))
  in
  scan 1. None None factors

and in_order = function
  | [] -> true
  | f :: rest ->
      rebuilt f == f
      && (match rest with g :: _ -> compare f g < 0 | [] -> true)
      && List.for_all (fun g -> not (equal (base f) (base g))) rest
      && in_order rest

and mul_items factors =
  let flat_iter f = List.iter (function Mul (xs, _) -> List.iter f xs | e -> f e) in
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
      collect compare equal (List.rev !items)
      |> List.filter_map (fun { key = b; weight = n; pos = p; first = e } ->
             match factor e b n with Some t -> Some (t, p) | None -> None)
    in
    match
      sort_terms (if !konst = 1. then rebuilt else (Const !konst, -1) :: rebuilt)
    with
    | [] -> one
    | [ e ] -> e
    | es -> mk_mul es
  end

(* The factor of base [b] whose exponents sum to [n], first met as
   [e]. *)
and factor e b n =
  if n = 0. then None else if n = 1. then Some b else Some (power_as e b n)

(* [pow b (Const n)], or [e] itself when it is that power. *)
and power_as e b n =
  match e with
  | Pow (b', Const n', _) when b' == b && bits_equal n n' && pow_keeps b n -> e
  | _ -> pow b (Const n)

and pow base expo =
  match (base, expo) with
  | _, Const 0. -> one
  | _, Const 1. -> base
  | Const 1., _ -> one
  | Const b, Const n ->
      let r = eval_pow b n in
      if Float.is_finite r then Const r else mk_pow base expo
  | Pow (b, Const m, _), Const n -> pow b (Const (m *. n))
  | _ -> mk_pow base expo

(* A non-constant factor as [mul] rebuilds it: its base, raised to its
   exponent unless that is 1; the factor itself if that is what [mul]
   would build. *)
and rebuilt f =
  let b, n = power_split f in
  if n = 1. then b else power_as f b n

(* Every factor but a leading constant is its own [rebuilt], which makes
   the [is_product] factors [mul_into] passes through unchanged. *)
let is_product fs =
  match mul fs with
  | Mul (gs, _) ->
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
    | es -> mk_mul es
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
    if Float.is_finite r then Const r else mk_call f args
  else mk_call f args

let sin x = call Sin [ x ]
let cos x = call Cos [ x ]
let tan x = call Tan [ x ]
let exp x = call Exp [ x ]
let log x = call Log [ x ]
let sqrt x = call Sqrt [ x ]
let sign x = call Sign [ x ]
let hypot x y = call Hypot [ x; y ]
let cond lhs rel rhs = { lhs; rel; rhs }

let if_ c t e =
  match (c.lhs, c.rhs) with
  | Const a, Const b -> if eval_rel c.rel a b then t else e
  | _ -> if equal t e then t else mk_if c t e

let children = function
  | Const _ | Var _ -> []
  | Add (xs, _) | Mul (xs, _) | Call (_, xs, _) -> xs
  | Pow (a, b, _) -> [ a; b ]
  | If (c, t, e, _) -> [ c.lhs; c.rhs; t; e ]

let map_children f = function
  | (Const _ | Var _) as e -> e
  | Add (xs, _) -> add (List.map f xs)
  | Mul (xs, _) -> mul (List.map f xs)
  | Pow (a, b, _) -> pow (f a) (f b)
  | Call (g, xs, _) -> call g (List.map f xs)
  | If (c, t, e, _) ->
      if_ { lhs = f c.lhs; rel = c.rel; rhs = f c.rhs } (f t) (f e)

(* Order-preserving rebuilding: the raw constructors, so n-ary operand
   lists are not re-sorted (the smart constructors would), keeping
   left-to-right float folds associated exactly as the input. *)
let replace_children e kids =
  match (e, kids) with
  | (Const _ | Var _), [] -> e
  | Add _, xs -> mk_add xs
  | Mul _, xs -> mk_mul xs
  | Pow _, [ a; b ] -> mk_pow a b
  | Call (g, _, _), xs -> mk_call g xs
  | If (c, _, _, _), [ l; r; t; e' ] -> mk_if { c with lhs = l; rhs = r } t e'
  | _ -> invalid_arg "Expr.replace_children: wrong number of children"

let rec map_exact f e =
  match f e with Some e' -> e' | None -> map_exact_children f e

and map_exact_children f e =
  replace_children e (List.map (map_exact f) (children e))

let rec fold f acc e = List.fold_left (fold f) (f acc e) (children e)

(* One set of walked nodes per domain, emptied after each walk:
   [vars] runs once per equation, and a set grown afresh each time
   would allocate its arrays on the major heap each time. *)
let vars_seen = Domain.DLS.new_key (fun () -> Phys_tbl.create 64)

(* A DAG walk: [seen] holds the compound nodes already walked. *)
let vars e =
  let seen = Domain.DLS.get vars_seen in
  let rec walk acc e =
    match e with
    | Const _ -> acc
    | Var v -> v :: acc
    | _ when not (Phys_tbl.visit seen e) -> acc
    | Add (xs, _) | Mul (xs, _) | Call (_, xs, _) -> List.fold_left walk acc xs
    | Pow (a, b, _) -> walk (walk acc a) b
    | If (c, a, b, _) -> walk (walk (walk (walk acc c.lhs) c.rhs) a) b
  in
  Fun.protect
    ~finally:(fun () -> Phys_tbl.clear seen)
    (fun () -> List.sort_uniq String.compare (walk [] e))

let size e = fold (fun n _ -> n + 1) 0 e

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
  | Add (terms, _) ->
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
  | Mul (Const (-1.) :: rest, _) ->
      paren 2 (fun ppf -> Fmt.pf ppf "-%a" (pp_prec 2) (mul_nocollect rest))
  | Mul (factors, _) ->
      paren 1 (fun ppf ->
          let num, den =
            List.partition
              (function Pow (_, Const n, _) when n < 0. -> false | _ -> true)
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
                  | Pow (b, Const n, _) -> pow b (Const (Float.neg n))
                  | _ -> assert false)
                den
            in
            Fmt.pf ppf "%a/%a" pp_prod num (pp_prec 3)
              (match inverted with [ d ] -> d | ds -> mul_nocollect ds))
  | Pow (b, Const n, _) when n < 0. ->
      paren 1 (fun ppf ->
          Fmt.pf ppf "1/%a" (pp_prec 3) (pow b (Const (Float.neg n))))
  | Pow (b, e', _) ->
      paren 3 (fun ppf -> Fmt.pf ppf "%a^%a" (pp_prec 4) b (pp_prec 4) e')
  | Call (f, args, _) ->
      Fmt.pf ppf "%s(%a)" (func_name f)
        (Fmt.list ~sep:(Fmt.any ", ") (pp_prec 0))
        args
  | If (c, t, e', _) ->
      paren 0 (fun ppf ->
          Fmt.pf ppf "if %a %s %a then %a else %a" (pp_prec 0) c.lhs
            (rel_name c.rel) (pp_prec 0) c.rhs (pp_prec 0) t (pp_prec 0) e')

let pp = pp_prec 0
