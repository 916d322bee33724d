(* Tests for the symbolic expression engine: smart-constructor
   normalisation, simplification, differentiation, evaluation, printing
   and the cost model. *)

module E = Om_expr.Expr
module Eval = Om_expr.Eval
module Deriv = Om_expr.Deriv
module Subst = Om_expr.Subst
module Cost = Om_expr.Cost
module Pf = Om_expr.Prefix_form

let x = E.var "x"
let y = E.var "y"
let z = E.var "z"

let check_expr msg expected actual =
  Alcotest.check
    (Alcotest.testable E.pp E.equal)
    msg expected actual

let check_float = Alcotest.check (Alcotest.float 1e-9)

(* ---------- random expression generator for property tests ---------- *)

let leaf_gen =
  QCheck.Gen.(
    oneof
      [
        map E.const (float_range (-4.) 4.);
        oneofl [ x; y; z ];
      ])

let expr_gen =
  QCheck.Gen.(
    sized_size (int_bound 6) @@ fix (fun self n ->
        if n <= 0 then leaf_gen
        else
          frequency
            [
              (2, leaf_gen);
              ( 3,
                map2
                  (fun a b -> E.add [ a; b ])
                  (self (n / 2)) (self (n / 2)) );
              ( 3,
                map2
                  (fun a b -> E.mul [ a; b ])
                  (self (n / 2)) (self (n / 2)) );
              (1, map (fun a -> E.neg a) (self (n - 1)));
              (1, map (fun a -> E.sin a) (self (n - 1)));
              (1, map (fun a -> E.cos a) (self (n - 1)));
              (1, map (fun a -> E.powi a 2) (self (n - 1)));
              ( 1,
                map2
                  (fun a b ->
                    E.if_ (E.cond a E.Lt b) (E.add [ a; b ]) (E.sub a b))
                  (self (n / 2)) (self (n / 2)) );
            ]))

let arbitrary_expr = QCheck.make ~print:(Fmt.to_to_string E.pp) expr_gen

let env_of v = Eval.env_of_list [ ("x", v.(0)); ("y", v.(1)); ("z", v.(2)) ]

let triple_gen = QCheck.Gen.(triple (float_range (-3.) 3.) (float_range (-3.) 3.) (float_range (-3.) 3.))

let arbitrary_expr_env =
  QCheck.make
    ~print:(fun (e, (a, b, c)) ->
      Printf.sprintf "%s @ (%g, %g, %g)" (Fmt.to_to_string E.pp e) a b c)
    QCheck.Gen.(pair expr_gen triple_gen)

let close a b =
  (* Exact equality first: it is the strongest agreement and the only
     sound comparison when both sides overflow to the same infinity
     (inf - inf is nan, which fails the relative test below). *)
  a = b
  || (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= 1e-6 *. (1. +. Float.max (Float.abs a) (Float.abs b))

(* ---------- unit tests: smart constructors ---------- *)

let test_constant_folding () =
  check_expr "2+3" (E.const 5.) (E.add [ E.const 2.; E.const 3. ]);
  check_expr "2*3*x*0" E.zero (E.mul [ E.const 2.; E.const 3.; x; E.zero ]);
  check_expr "x*1" x (E.mul [ x; E.one ]);
  check_expr "x+0" x (E.add [ x; E.zero ]);
  check_expr "x^0" E.one (E.powi x 0);
  check_expr "x^1" x (E.powi x 1);
  check_expr "2^3" (E.const 8.) (E.pow (E.const 2.) (E.const 3.))

let test_like_terms () =
  check_expr "x+x = 2x" E.(mul [ const 2.; x ]) (E.add [ x; x ]);
  check_expr "2x+3x = 5x" E.(mul [ const 5.; x ]) (E.add [ E.mul [ E.const 2.; x ]; E.mul [ E.const 3.; x ] ]);
  check_expr "x-x = 0" E.zero (E.sub x x);
  check_expr "x*x = x^2" (E.powi x 2) (E.mul [ x; x ]);
  check_expr "x^2*x^3 = x^5" (E.powi x 5) (E.mul [ E.powi x 2; E.powi x 3 ]);
  check_expr "x/x = 1" E.one (E.div x x)

let test_flattening () =
  check_expr "(x+y)+z = x+(y+z)"
    (E.add [ x; E.add [ y; z ] ])
    (E.add [ E.add [ x; y ]; z ]);
  check_expr "assoc mul"
    (E.mul [ x; E.mul [ y; z ] ])
    (E.mul [ E.mul [ x; y ]; z ])

let test_commutativity () =
  check_expr "x+y = y+x" (E.add [ x; y ]) (E.add [ y; x ]);
  check_expr "x*y = y*x" (E.mul [ x; y ]) (E.mul [ y; x ])

let test_if_collapse () =
  check_expr "if with equal branches"
    x
    (E.if_ (E.cond x E.Lt y) x x);
  check_expr "if with constant condition"
    x
    (E.if_ (E.cond E.one E.Lt (E.const 2.)) x y)

let test_call_arity () =
  Alcotest.check_raises "sin/2 rejected"
    (Invalid_argument "Expr.call: sin expects 1 arguments") (fun () ->
      ignore (E.call E.Sin [ x; y ]))

let test_vars () =
  Alcotest.(check (list string))
    "vars sorted, unique" [ "x"; "y" ]
    (E.vars (E.add [ x; E.mul [ y; x ] ]))

let test_pp_golden () =
  let show e = Fmt.to_to_string E.pp e in
  Alcotest.(check string) "sum with negative" "x - 2*y"
    (show (E.sub x (E.mul [ E.const 2.; y ])));
  Alcotest.(check string) "division" "x/y" (show (E.div x y));
  Alcotest.(check string) "negated product" "-(x*y)"
    (show (E.neg (E.mul [ x; y ])));
  Alcotest.(check string) "reciprocal" "1/x" (show (E.div E.one x));
  Alcotest.(check string) "power" "x^2" (show (E.powi x 2));
  Alcotest.(check string) "call" "sin(x + y)" (show (E.sin (E.add [ x; y ])))

let test_pp_roundtrip_sanity () =
  let e = E.(sub (mul [ const 2.; x ]) (div y (powi z 2))) in
  let s = Fmt.to_to_string E.pp e in
  Alcotest.(check bool) "prints something" true (String.length s > 3)

(* [E.t] is private; a raw, uncollected node is built by substituting
   its operands, with [map_exact], into placeholders that a smart
   constructor has already put in order.  [es] has at least two
   elements. *)
let raw build es =
  let ops = Array.of_list es in
  let slot i = Printf.sprintf "#%03d" i in
  E.map_exact
    (function
      | E.Var s when s.[0] = '#' -> Some ops.(int_of_string (String.sub s 1 3))
      | _ -> None)
    (build (List.init (Array.length ops) (fun i -> E.var (slot i))))

let raw_add = raw E.add
let raw_mul = raw E.mul
let raw_pow a b =
  raw (function [ a; b ] -> E.pow a b | _ -> assert false) [ a; b ]

(* The table-based like-term collection [E.add]/[E.mul] used before
   they moved to sort-and-merge, kept as their oracle: first-occurrence
   order in a polymorphic Hashtbl, then one stable sort.  A rebuilt
   power that comes out exactly as the first factor of its base (the
   same base physically, the exponent bit for bit) is that factor. *)
module Table_oracle = struct
  let coeff_split = function
    | E.Const c -> (c, [])
    | E.Mul (E.Const c :: rest, _) -> (c, rest)
    | E.Mul (fs, _) -> (1., fs)
    | e -> (1., [ e ])

  let power_split = function E.Pow (b, E.Const n, _) -> (b, n) | e -> (e, 1.)

  let bits x = Int64.bits_of_float x

  let or_first first e =
    match (first, e) with
    | E.Pow (b1, E.Const n1, _), E.Pow (b2, E.Const n2, _)
      when b1 == b2 && bits n1 = bits n2 ->
        first
    | _ -> e

  let mul_nocollect = function
    | [] -> E.one
    | [ e ] -> e
    | es -> raw_mul (List.sort E.compare es)

  let add terms =
    let flat = List.concat_map (function E.Add (xs, _) -> xs | e -> [ e ]) terms in
    let table : (E.t list, float ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    let konst = ref 0. in
    let record e =
      let c, fs = coeff_split e in
      if fs = [] then konst := !konst +. c
      else
        match Hashtbl.find_opt table fs with
        | Some r -> r := !r +. c
        | None ->
            Hashtbl.add table fs (ref c);
            order := fs :: !order
    in
    List.iter record flat;
    let rebuilt =
      List.rev !order
      |> List.filter_map (fun fs ->
             let c = !(Hashtbl.find table fs) in
             if c = 0. then None
             else if c = 1. then Some (mul_nocollect fs)
             else Some (mul_nocollect (E.const c :: fs)))
    in
    let all = if !konst = 0. then rebuilt else E.const !konst :: rebuilt in
    match List.sort E.compare all with
    | [] -> E.zero
    | [ e ] -> e
    | es -> raw_add es

  let mul factors =
    let flat = List.concat_map (function E.Mul (xs, _) -> xs | e -> [ e ]) factors in
    let table : (E.t, float ref * E.t) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    let konst = ref 1. in
    let record e =
      match e with
      | E.Const c -> konst := !konst *. c
      | _ -> (
          let b, n = power_split e in
          match Hashtbl.find_opt table b with
          | Some (r, _) -> r := !r +. n
          | None ->
              Hashtbl.add table b (ref n, e);
              order := b :: !order)
    in
    List.iter record flat;
    if !konst = 0. then E.zero
    else
      let rebuilt =
        List.rev !order
        |> List.filter_map (fun b ->
               let r, first = Hashtbl.find table b in
               let n = !r in
               if n = 0. then None
               else if n = 1. then Some b
               else Some (or_first first (E.pow b (E.const n))))
      in
      let all = if !konst = 1. then rebuilt else E.const !konst :: rebuilt in
      match List.sort E.compare all with
      | [] -> E.one
      | [ e ] -> e
      | es -> raw_mul es
end

(* Same tree, constants bit for bit, operands in the same order — and
   the same physical sharing: at every position both sides are the same
   input subterm or both are fresh.  Vm's DAG-aware lowering keys on
   physical identity, so sharing is part of the output. *)
let identical inputs a b =
  let origin e = List.find_index (fun s -> s == e) inputs in
  let rec go a b =
    origin a = origin b
    &&
    match (a, b) with
    | E.Const x, E.Const y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | E.Var x, E.Var y -> String.equal x y
    | E.Add (xs, _), E.Add (ys, _) | E.Mul (xs, _), E.Mul (ys, _) -> List.equal go xs ys
    | E.Pow (a1, b1, _), E.Pow (a2, b2, _) -> go a1 a2 && go b1 b2
    | E.Call (f, xs, _), E.Call (g, ys, _) -> f = g && List.equal go xs ys
    | E.If (c1, t1, e1, _), E.If (c2, t2, e2, _) ->
        c1.rel = c2.rel && go c1.lhs c2.lhs && go c1.rhs c2.rhs && go t1 t2
        && go e1 e2
    | _ -> false
  in
  go a b

(* Operands drawn with replacement from a small pool, so keys repeat
   both physically and as equal copies; the pool mixes signed zeros,
   non-finite constants, raw (unsorted, uncollected) products and raw
   powers that [pow] would simplify. *)
let operands_gen =
  let open QCheck.Gen in
  let consts =
    oneofl [ 0.; -0.; 1.; -1.; 2.; 0.5; 1e308; infinity; neg_infinity; nan ]
  in
  let v = oneofl [ x; y; z ] in
  let atom = oneof [ v; map E.const consts ] in
  let term =
    frequency
      [
        (3, atom);
        (2, map2 (fun c a -> raw_mul [ E.const c; a ]) consts v);
        (2, map2 (fun a b -> raw_mul [ a; b ]) atom atom);
        (1, map3 (fun a b c -> raw_mul [ a; b; c ]) atom atom atom);
        (2, map2 (fun a n -> raw_pow a (E.const n)) v consts);
        (1, map2 (fun a n -> raw_pow a (E.const n)) atom consts);
        ( 1,
          map3 (fun a m n -> raw_pow (raw_pow a (E.const m)) (E.const n)) v consts
            consts );
        (1, map2 (fun a b -> raw_add [ a; b ]) atom atom);
        (1, map2 (fun a b -> E.mul [ a; b ]) atom atom);
        (1, map2 (fun a b -> E.add [ a; b ]) atom atom);
        (1, map E.sin v);
      ]
  in
  let* pool = array_size (int_range 1 5) term in
  list_size (int_bound 8)
    (oneof
       [ map (fun i -> pool.(i mod Array.length pool)) nat; term ])

let prop_add_mul_match_table_oracle =
  QCheck.Test.make ~name:"add and mul match the table oracle" ~count:1000
    (QCheck.make
       ~print:(fun es ->
         String.concat "; " (List.map (Fmt.to_to_string E.pp) es))
       operands_gen)
    (fun ops ->
      let inputs =
        E.zero :: E.one
        :: List.concat_map (E.fold (fun acc e -> e :: acc) []) ops
      in
      identical inputs (Table_oracle.add ops) (E.add ops)
      && identical inputs (Table_oracle.mul ops) (E.mul ops))

(* The product rule's fast path: [E.mul_into x fs] builds what
   [E.mul (x :: fs)] builds when [fs] is a product's factors less one,
   down to constant bits and physical sharing.  The products come from
   [operands_gen]; [x] is drawn from fresh operands, from [fs] itself
   (a like base) and from powers of its factors, so the fallbacks to
   [E.mul] are exercised too. *)
let prop_mul_into_matches_mul =
  let gen =
    let open QCheck.Gen in
    let* ops = operands_gen in
    match E.mul ops with
    | E.Mul (fs, _) when E.is_product fs ->
        let* k = int_bound (List.length fs - 1) in
        let fs' = List.filteri (fun i _ -> i <> k) fs in
        let* x =
          frequency
            [
              (3, map (function [] -> E.one | e :: _ -> e) operands_gen);
              (1, oneofl fs);
              (1, map (fun f -> E.pow f (E.const 2.)) (oneofl fs));
              (1, map E.const (oneofl [ 0.; -0.; 2.; infinity; nan ]));
            ]
        in
        return (Some (x, fs'))
    | _ -> return None
  in
  QCheck.Test.make ~name:"mul fast path matches the general path" ~count:1000
    (QCheck.make
       ~print:(function
         | None -> "(not a product)"
         | Some (x, fs) ->
             Fmt.str "%a into [%s]" E.pp x
               (String.concat "; " (List.map (Fmt.to_to_string E.pp) fs)))
       gen)
    (function
      | None -> true
      | Some (x, fs) ->
          let inputs =
            E.zero :: E.one
            :: List.concat_map (E.fold (fun acc e -> e :: acc) []) (x :: fs)
          in
          identical inputs (E.mul (x :: fs)) (E.mul_into x fs))

(* ---------- differentiation ---------- *)

let finite_diff f v h = (f (v +. h) -. f (v -. h)) /. (2. *. h)

(* Conditionals and |x|-style functions have kinks where finite
   differences legitimately disagree with the branch-wise derivative, so
   the strict comparison only runs on smooth expressions. *)
let has_kink e =
  E.fold
    (fun acc n ->
      acc
      ||
      match n with
      | E.If _ | E.Call ((E.Abs | E.Sign | E.Min | E.Max), _, _) -> true
      | _ -> false)
    false e

let prop_deriv_matches_finite_difference =
  QCheck.Test.make ~name:"d/dx matches finite differences" ~count:300
    arbitrary_expr_env (fun (e, (a, b, c)) ->
      QCheck.assume (not (has_kink e));
      let de = Deriv.diff "x" e in
      let f v = Eval.eval (env_of [| v; b; c |]) e in
      let exact = Eval.eval (env_of [| a; b; c |]) de in
      let approx = finite_diff f a 1e-5 in
      QCheck.assume (Float.is_finite exact && Float.is_finite approx);
      (* Third-derivative truncation error scales with the value sizes,
         so tolerate a relative error. *)
      Float.abs (exact -. approx)
      <= 1e-3 *. (10. +. Float.max (Float.abs exact) (Float.abs approx)))

let test_deriv_table () =
  check_expr "d sin" (E.cos x) (Deriv.diff "x" (E.sin x));
  check_expr "d cos" (E.neg (E.sin x)) (Deriv.diff "x" (E.cos x));
  check_expr "d exp" (E.exp x) (Deriv.diff "x" (E.exp x));
  check_expr "d log" (E.div E.one x) (Deriv.diff "x" (E.log x));
  check_expr "d x²" E.(mul [ const 2.; x ]) (Deriv.diff "x" (E.powi x 2));
  check_expr "d const" E.zero (Deriv.diff "x" (E.const 42.));
  check_expr "d other var" E.zero (Deriv.diff "x" y)

let test_deriv_product_rule () =
  (* d(x * sin x) = sin x + x cos x *)
  check_expr "product rule"
    E.(add [ sin x; mul [ x; cos x ] ])
    (Deriv.diff "x" (E.mul [ x; E.sin x ]))

(* The forward pass over all of the bearing's equations (as
   Odesys.of_equations uses it), against plain diff on every structural
   Jacobian entry. *)
let test_jacobian_matches_diff () =
  let fm = Om_lang.Flatten.flatten_string (Om_models.Bearing2d.source ()) in
  let states = Array.of_list (List.map fst fm.equations) in
  let grads =
    Deriv.jacobian states (Array.of_list (List.map snd fm.equations))
  in
  let entries = ref 0 in
  List.iteri
    (fun i (_, rhs) ->
      List.iter
        (fun v ->
          match Array.find_index (String.equal v) states with
          | None -> ()
          | Some c ->
              incr entries;
              let d =
                match Array.find_opt (fun (c', _) -> c' = c) grads.(i) with
                | Some (_, d) -> d
                | None -> E.zero
              in
              check_expr ("d/d" ^ v) (Deriv.diff v rhs) d)
        (E.vars rhs))
    fm.equations;
  Alcotest.(check int) "structural entries" 320 !entries

let is_pos_zero = function
  | E.Const c -> Int64.equal (Int64.bits_of_float c) 0L
  | _ -> false

(* [jacobian]'s contract against [diff] on one system: every listed
   entry equal, columns ascending, every unlisted column exactly +0. *)
let jacobian_agrees names rows =
  let grads = Deriv.jacobian names rows in
  Array.for_all2
    (fun rhs row ->
      let cols = Array.map fst row in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      Array.for_all
        (fun (c, d) -> E.equal d (Deriv.diff names.(c) rhs))
        row
      && ascending (Array.to_list cols)
      && Array.for_all
           (fun c -> Array.mem c cols || is_pos_zero (Deriv.diff names.(c) rhs))
           (Array.init (Array.length names) Fun.id))
    rows grads

let prop_jacobian_matches_diff =
  QCheck.Test.make ~name:"jacobian agrees with diff" ~count:100
    QCheck.(make ~print:(Printf.sprintf "model seed %d") Gen.nat)
    (fun seed ->
      let fm =
        Om_lang.Flatten.flatten
          (Om_fuzz.Gen.model (Random.State.make [| seed |]))
      in
      jacobian_agrees
        (Array.of_list (List.map fst fm.equations))
        (Array.of_list (List.map snd fm.equations)))

(* 1e999 parses to inf, and d/dx (inf * y) is 0 * inf = nan even though
   the product never reads x: the pass must not assume zero there. *)
let test_jacobian_nonfinite () =
  let fm =
    Om_lang.Flatten.flatten_string
      {|model M; class C variable x init 1.0; variable y init 1.0;
        equation der(x) = x + 1e999*y; equation der(y) = 0.0 - x; end;
        instance c of C;|}
  in
  let names = Array.of_list (List.map fst fm.equations) in
  let rows = Array.of_list (List.map snd fm.equations) in
  Alcotest.(check bool) "agrees with diff" true (jacobian_agrees names rows);
  let grads = Deriv.jacobian names rows in
  Alcotest.(check (list int)) "row 0 columns" [ 0; 1 ]
    (Array.to_list (Array.map fst grads.(0)));
  Alcotest.(check bool) "d/dx is nan" true
    (match List.assoc 0 (Array.to_list grads.(0)) with
    | E.Const c -> Float.is_nan c
    | _ -> false);
  Alcotest.(check (list int)) "row 1 columns" [ 0 ]
    (Array.to_list (Array.map fst grads.(1)))

(* ---------- evaluation ---------- *)

let test_env_of_list_duplicates () =
  (* Later bindings win, like successive assignments. *)
  let env = Eval.env_of_list [ ("x", 1.); ("x", 2.) ] in
  check_float "last binding" 2. (Eval.eval env x)

let test_eval_unbound () =
  Alcotest.check_raises "unbound" (Eval.Unbound "q") (fun () ->
      ignore (Eval.eval (Eval.env_of_list []) (E.var "q")))

let prop_cost_dyn_value_agrees =
  QCheck.Test.make ~name:"cost_dyn value agrees with eval" ~count:300
    arbitrary_expr_env (fun (e, (a, b, c)) ->
      let names = [| "x"; "y"; "z" |] in
      let f = Om_expr.Cost_dyn.build (Om_expr.Layout.of_names names) e in
      let acc = ref 0. in
      close (f [| a; b; c |] acc) (Eval.eval (env_of [| a; b; c |]) e))

let prop_cost_dyn_within_static_bounds =
  QCheck.Test.make ~name:"dynamic cost <= worst-case static cost" ~count:300
    arbitrary_expr_env (fun (e, (a, b, c)) ->
      let names = [| "x"; "y"; "z" |] in
      let f = Om_expr.Cost_dyn.build (Om_expr.Layout.of_names names) e in
      let acc = ref 0. in
      ignore (f [| a; b; c |] acc);
      !acc <= Cost.flops e +. 1e-9)

(* ---------- register VM ---------- *)

module Vm = Om_expr.Vm
module Vm_code = Om_expr.Vm_code

(* Differential testing wants the full ISA exercised, so extend the
   generator with the binary primitives and nested conditionals. *)
let vm_expr_gen =
  QCheck.Gen.(
    sized_size (int_bound 8) @@ fix (fun self n ->
        if n <= 0 then leaf_gen
        else
          frequency
            [
              (2, leaf_gen);
              (3, map2 (fun a b -> E.add [ a; b ]) (self (n / 2)) (self (n / 2)));
              (3, map2 (fun a b -> E.mul [ a; b ]) (self (n / 2)) (self (n / 2)));
              (1, map2 E.sub (self (n / 2)) (self (n / 2)));
              (1, map (fun a -> E.neg a) (self (n - 1)));
              (1, map (fun a -> E.sin a) (self (n - 1)));
              (1, map (fun a -> E.cos a) (self (n - 1)));
              (1, map (fun a -> E.exp a) (self (n - 1)));
              (1, map (fun a -> E.sqrt (E.call E.Abs [ a ])) (self (n - 1)));
              (1, map (fun a -> E.powi a 2) (self (n - 1)));
              (1, map (fun a -> E.powi a 3) (self (n - 1)));
              (1, map2 (fun a b -> E.call E.Atan2 [ a; b ]) (self (n / 2)) (self (n / 2)));
              (1, map2 E.hypot (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> E.call E.Min [ a; b ]) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> E.call E.Max [ a; b ]) (self (n / 2)) (self (n / 2)));
              ( 2,
                map2
                  (fun a b ->
                    E.if_ (E.cond a E.Lt b) (E.add [ a; b ]) (E.sub a b))
                  (self (n / 2)) (self (n / 2)) );
              ( 1,
                map2
                  (fun a b ->
                    E.if_ (E.cond a E.Ge b)
                      (E.if_ (E.cond b E.Gt E.zero) a (E.neg b))
                      (E.mul [ a; b ]))
                  (self (n / 2)) (self (n / 2)) );
            ]))

let arbitrary_vm_expr_env =
  QCheck.make
    ~print:(fun (e, (a, b, c)) ->
      Printf.sprintf "%s @ (%g, %g, %g)" (Fmt.to_to_string E.pp e) a b c)
    QCheck.Gen.(pair vm_expr_gen triple_gen)

(* An expression as a program: one statement that stores its value to
   out slot 0. *)
let vm_compile ?optimize names e =
  Vm.compile_stmts ?optimize ~out_size:1 (Om_expr.Layout.of_names names)
    [ (e, Vm.To_out 0) ]

let vm_run p env =
  let out = [| 0. |] in
  Vm.exec p ~env ~out;
  out.(0)

let prop_vm_matches_eval =
  QCheck.Test.make ~name:"register VM agrees with tree evaluation" ~count:500
    arbitrary_vm_expr_env (fun (e, (a, b, c)) ->
      let names = [| "x"; "y"; "z" |] in
      let p = vm_compile names e in
      close (vm_run p [| a; b; c |]) (Eval.eval (env_of [| a; b; c |]) e))

(* The VM's contract with itself and with {!Eval}: the same bits for a
   non-NaN result, a NaN for a NaN (whose sign bit a rewrite such as
   [x * -1 -> -x] may change). *)
let same_value a b =
  if Float.is_nan a then Float.is_nan b
  else Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The optimiser stops at its fixpoint: optimising its own output again
   gives it back word for word, constants bit for bit.  Checked on a
   one-statement program and on a statement program with a private
   temporary, whose store the first run may delete. *)
let reoptimize ?private_env_slot p =
  let r = Vm.raw p in
  Om_expr.Peephole.optimize ?private_env_slot (Om_expr.Peephole.scratch ())
    ~len:(Array.length r.rw_code)
    {
      code = Array.copy r.rw_code;
      consts = r.rw_consts;
      nregs = r.rw_nregs;
    }

let is_fixpoint ?private_env_slot p =
  let r = Vm.raw p and q = reoptimize ?private_env_slot p in
  q.code = r.rw_code && q.nregs = r.rw_nregs
  && Array.length q.consts = Array.length r.rw_consts
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       q.consts r.rw_consts

(* Raw trees, built with the constructors, give the optimiser the work
   the smart constructors never leave: [x * 1], [x ^ 1], [-(-x)],
   [x + -y], and [x ^ 1 * x], a square only once the copy is
   propagated — work for an earlier pass, so a second round. *)
let raw_vm_gen =
  QCheck.Gen.(
    sized_size (int_bound 6) @@ fix (fun self n ->
        if n <= 0 then leaf_gen
        else
          let sub = self (n / 2) in
          let neg a = raw_mul [ E.minus_one; a ] in
          let square_of_copy a =
            let s = E.sin a in
            raw_mul [ raw_pow s E.one; s ]
          in
          frequency
            [
              (2, leaf_gen);
              (2, map2 (fun a b -> raw_add [ a; b ]) sub sub);
              (2, map2 (fun a b -> raw_mul [ a; b ]) sub sub);
              (1, map (fun a -> raw_mul [ E.one; a ]) sub);
              (1, map (fun a -> raw_pow a E.one) sub);
              (1, map (fun a -> neg (neg a)) sub);
              (1, map2 (fun a b -> raw_add [ a; neg b ]) sub sub);
              (1, map2 (fun a b -> raw_add [ a; neg (neg b) ]) sub sub);
              (2, map square_of_copy sub);
              ( 1,
                map2
                  (fun a b ->
                    E.if_ (E.cond a E.Lt b) (neg (neg a)) (raw_mul [ a; b ]))
                  sub sub );
            ]))

(* Smart and raw trees: the raw ones reach folding, which the lowering
   leaves only constants it cannot see (a constant that does not lead
   its sum or product, [x ^ 1], a constant known through a copy). *)
let prop_vm_peephole_preserves_value =
  QCheck.Test.make ~name:"peephole pass preserves VM results" ~count:500
    (QCheck.make
       ~print:(fun (e, (a, b, c)) ->
         Printf.sprintf "%s @ (%g, %g, %g)" (Fmt.to_to_string E.pp e) a b c)
       QCheck.Gen.(pair (oneof [ vm_expr_gen; raw_vm_gen ]) triple_gen))
    (fun (e, (a, b, c)) ->
      let names = [| "x"; "y"; "z" |] in
      let p0 = vm_compile ~optimize:false names e in
      let p1 = vm_compile names e in
      same_value (vm_run p0 [| a; b; c |]) (vm_run p1 [| a; b; c |]))

let prop_vm_peephole_fixpoint =
  QCheck.Test.make ~name:"peephole output is a fixpoint" ~count:500
    (QCheck.make ~print:(Fmt.to_to_string E.pp)
       QCheck.Gen.(oneof [ vm_expr_gen; raw_vm_gen ]))
    (fun e ->
      let private_env_slot s = s = 3 in
      let stmts =
        Vm.compile_stmts ~private_env_slot ~out_size:2
          (Om_expr.Layout.of_names [| "x"; "y"; "z"; "t" |])
          [
            (e, Vm.To_env 3);
            (E.mul [ E.var "t"; E.add [ e; x ] ], Vm.To_out 0);
            (E.sub e (E.var "t"), Vm.To_out 1);
          ]
      in
      is_fixpoint (vm_compile [| "x"; "y"; "z" |] e)
      && is_fixpoint ~private_env_slot stmts)

let prop_vm_peephole_never_grows_code =
  QCheck.Test.make ~name:"peephole pass never grows code" ~count:300
    arbitrary_vm_expr_env (fun (e, _) ->
      let names = [| "x"; "y"; "z" |] in
      Vm.length (vm_compile names e)
      <= Vm.length (vm_compile ~optimize:false names e))

let prop_vm_code_size_linear =
  QCheck.Test.make ~name:"VM code size linear in expression size" ~count:300
    arbitrary_expr (fun e ->
      let pr = vm_compile ~optimize:false [| "x"; "y"; "z" |] e in
      Vm.length pr <= 4 * E.size e)

let test_vm_unbound () =
  Alcotest.check_raises "unknown variable (register)" (Eval.Unbound "q")
    (fun () -> ignore (vm_compile [| "x" |] (E.var "q")))

let test_vm_conditional_branches () =
  let e = E.if_ (E.cond x E.Lt E.zero) (E.const 10.) (E.const 20.) in
  let p = vm_compile [| "x" |] e in
  check_float "then branch" 10. (vm_run p [| -1. |]);
  check_float "else branch" 20. (vm_run p [| 1. |])

let test_vm_disassemble () =
  let p = vm_compile [| "x" |] (E.add [ x; E.one ]) in
  let d = Vm.disassemble p in
  Alcotest.(check bool) "has load" true
    (String.length d > 0
    && List.exists
         (fun l -> String.length l > 6)
         (String.split_on_char '\n' d));
  (* x + 1 folds to [ldv; addk; sto] after the peephole pass. *)
  Alcotest.(check int) "three instrs" 3 (Vm.length p)

(* The flagship fusion case: x*y + z*x + 3 collapses to
   vmul / addk / vmacc and the store — four instructions, two of them
   fused. *)
let test_vm_fusion () =
  let e = E.add [ E.mul [ x; y ]; E.mul [ z; x ]; E.const 3. ] in
  let p = vm_compile [| "x"; "y"; "z" |] e in
  check_float "value" (2. *. 3. +. 5. *. 2. +. 3.)
    (vm_run p [| 2.; 3.; 5. |]);
  Alcotest.(check int) "four instrs" 4 (Vm.length p);
  let s = Vm.stats p in
  Alcotest.(check int) "two fused" 2 s.fused;
  let has op =
    Array.exists
      (fun (i : Vm_code.instr) ->
        match (op, i) with
        | `Vmul, Vm_code.Vmul _ -> true
        | `Vmacc, Vm_code.Vmacc _ -> true
        | _ -> false)
      (Vm.instructions p)
  in
  Alcotest.(check bool) "vmul present" true (has `Vmul);
  Alcotest.(check bool) "vmacc present" true (has `Vmacc)

(* Constant subtrees fold at compile time: no call instructions survive
   and the program is a single constant load and its store. *)
let test_vm_constant_folding () =
  let e =
    E.add [ E.sin (E.const 2.); E.mul [ E.const 3.; E.const 4. ] ]
  in
  let p = vm_compile [| "x" |] e in
  Alcotest.(check int) "single ldc and its store" 2 (Vm.length p);
  check_float "value" (Float.sin 2. +. 12.) (vm_run p [| 0. |])

(* [Mul [-1; x]] lowers to [neg], which Eval computes as [-1. *. x]:
   the same bits for every non-NaN [x], a NaN for a NaN.  The NaN's
   sign bit may differ — on x86-64 [-1. *. nan] keeps it and [-. nan]
   flips it — so the contract compares NaNs by class. *)
let test_vm_neg_nan () =
  let e = E.mul [ E.minus_one; x ] in
  let p = vm_compile [| "x" |] e in
  Alcotest.(check bool)
    "lowered to neg" true
    (Array.exists
       (function Vm_code.Neg _ -> true | _ -> false)
       (Vm.instructions (vm_compile ~optimize:false [| "x" |] e)));
  List.iter
    (fun v ->
      let vm = vm_run p [| v |] in
      let ev = Eval.eval (Eval.env_of_list [ ("x", v) ]) e in
      if Float.is_nan v then begin
        Alcotest.(check bool) "vm nan" true (Float.is_nan vm);
        Alcotest.(check bool) "eval nan" true (Float.is_nan ev)
      end
      else
        Alcotest.(check int64)
          (Printf.sprintf "bits of -%h" v)
          (Int64.bits_of_float ev) (Int64.bits_of_float vm))
    [
      3.; -2.5; 0.; -0.; infinity; neg_infinity; 5e-324; nan;
      Int64.float_of_bits 0x7ff8000000000001L;
      Int64.float_of_bits 0xfff8000000000001L;
    ]

(* Statement programs: temps store into the env, roots into out;
   unread private temps are dead-store eliminated. *)
let test_vm_stmts () =
  let names = [| "x"; "y"; "tmp"; "dead" |] in
  let tmp = E.var "tmp" in
  let stmts =
    [
      (E.add [ x; y ], Vm.To_env 2);
      (E.mul [ x; x; y ], Vm.To_env 3);
      (E.mul [ tmp; tmp ], Vm.To_out 0);
      (E.add [ tmp; x ], Vm.To_out 1);
    ]
  in
  let private_env_slot s = s >= 2 in
  let p =
    Vm.compile_stmts ~private_env_slot ~out_size:2
      (Om_expr.Layout.of_names names) stmts
  in
  let env = [| 2.; 3.; 0.; 0. |] in
  let out = [| 0.; 0. |] in
  Vm.exec p ~env ~out;
  check_float "tmp^2" 25. out.(0);
  check_float "tmp + x" 7. out.(1);
  (* The "dead" temp is never read, so no store to env slot 3 remains. *)
  let stores_dead =
    Array.exists
      (fun (i : Vm_code.instr) ->
        match i with Vm_code.Ste (_, s) -> s = 3 | _ -> false)
      (Vm.instructions p)
  in
  Alcotest.(check bool) "dead temp store eliminated" false stores_dead

(* DAG lowering: a physically shared subtree is computed once. *)
let test_vm_dag_sharing () =
  let s = E.sin (E.add [ x; z ]) in
  let e = E.add [ s; E.cos s; E.mul [ s; y ] ] in
  let sins p =
    Array.fold_left
      (fun n (i : Vm_code.instr) ->
        match i with Vm_code.Call1 (_, E.Sin, _) -> n + 1 | _ -> n)
      0 (Vm.instructions p)
  in
  Alcotest.(check int) "one sin for three uses" 1
    (sins (vm_compile [| "x"; "y"; "z" |] e));
  (* A structurally equal but distinct copy is a different node. *)
  let e' = E.add [ s; E.cos (E.sin (E.add [ x; z ])) ] in
  Alcotest.(check int) "copies are not merged" 2
    (sins (vm_compile [| "x"; "y"; "z" |] e'))

(* A subtree first lowered inside an If arm and used again after the
   join: on the other branch its register is never written, so the
   later use must compute it afresh.  Fresh programs run the else
   branch first, so a wrongly reused register reads an unset zero. *)
let test_vm_shared_across_if () =
  let s = E.sin (E.add [ x; z ]) in
  let c = E.cond x E.Lt y in
  let branchy = E.if_ c (E.mul [ s; z ]) (E.hypot z y) in
  let nested =
    E.if_ c (E.if_ (E.cond z E.Gt E.zero) s (E.neg s)) (E.cos y)
  in
  let after = E.mul [ s; y ] in
  (* atan2 keeps its operand order, so its arm is lowered before [s]. *)
  let single = E.call E.Atan2 [ branchy; s ] in
  let stmts =
    [ (branchy, Vm.To_out 0); (nested, Vm.To_out 1); (after, Vm.To_out 2) ]
  in
  let names = [| "x"; "y"; "z" |] in
  let points =
    [
      [| 2.; 1.; 0.5 |]; [| 0.; 1.; 0.5 |]; [| 0.; 1.; -0.5 |]; [| 3.; 1.; 0.7 |];
    ]
  in
  List.iter
    (fun optimize ->
      let p = vm_compile ~optimize names single in
      let ps =
        Vm.compile_stmts ~optimize ~out_size:3 (Om_expr.Layout.of_names names)
          stmts
      in
      List.iter
        (fun env ->
          let want e = Eval.eval (env_of env) e in
          check_float "single expression" (want single) (vm_run p env);
          let out = Array.make 3 0. in
          Vm.exec ps ~env ~out;
          List.iteri
            (fun i (e, _) -> check_float "statement" (want e) out.(i))
            stmts)
        points)
    [ true; false ]

(* Reuse never spans a store to an env slot: the shared subtree reads
   the slot, so after the store it has a new value. *)
let test_vm_shared_across_store () =
  let tmp = E.var "tmp" in
  let s = E.sin (E.add [ tmp; x ]) in
  let stmts =
    [ (s, Vm.To_out 0); (E.add [ x; y ], Vm.To_env 2); (s, Vm.To_out 1) ]
  in
  let p =
    Vm.compile_stmts ~out_size:2
      (Om_expr.Layout.of_names [| "x"; "y"; "tmp" |])
      stmts
  in
  let env = [| 0.5; 1.5; 0.25 |] in
  let out = [| 0.; 0. |] in
  Vm.exec p ~env ~out;
  check_float "before the store" (Float.sin 0.75) out.(0);
  check_float "after the store" (Float.sin 2.5) out.(1)

(* ---------- arms shared across equal conditions ---------- *)

module Vb = Om_expr.Vm_batch

(* A statement block whose Ifs draw their conditions from a pool of two
   or three (leaf and compound operands, signed zeros, NaN), with arms
   built from a pool of shared subterms, nested Ifs, and stores to an
   env slot [t] that later conditions and arms read.  A later If reads
   what an earlier arm of an equal condition computed; every output
   must be what [Eval] gives, in [Vm] and lane by lane in [Vm_batch]
   over diverging lanes, and the bits of the statements compiled one
   program each, which share no arm. *)
let arm_names = [| "x"; "y"; "z"; "t" |]
let t_var = E.var "t"

let arm_block_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        oneofl [ x; y; z; t_var ];
        map E.const (oneofl [ 0.; -0.; nan; 1.5; 1.25; -2. ]);
      ]
  in
  let operand =
    frequency
      [
        (2, leaf);
        (1, map2 (fun a b -> E.add [ a; b ]) leaf leaf);
        (1, map E.sin leaf);
      ]
  in
  let rel = oneofl [ E.Lt; E.Le; E.Gt; E.Ge ] in
  (* Later conditions often compare the first one's left operand under
     another relation, or with another constant, the cases a key must
     tell apart. *)
  let* a, r, b = triple operand rel operand in
  let* rest =
    list_size (int_range 1 2)
      (oneof
         [
           map (fun r -> (a, r, b)) rel;
           map (fun c -> (a, r, E.const c)) (oneofl [ 1.5; 1.25 ]);
           triple operand rel operand;
         ])
  in
  let conds =
    Array.of_list (List.map (fun (a, r, b) -> E.cond a r b) ((a, r, b) :: rest))
  in
  let* shared =
    list_size (int_range 1 3)
      (oneof
         [
           map2 (fun a b -> E.mul [ a; E.sin b ]) leaf leaf;
           map2 (fun a b -> E.hypot a b) operand leaf;
           map (fun a -> E.exp (E.add [ a; E.one ])) operand;
         ])
  in
  let shared = Array.of_list shared in
  let rec arm n =
    if n <= 0 then oneof [ leaf; oneofa shared ]
    else
      frequency
        [
          (2, oneofa shared);
          (2, map2 (fun a b -> E.add [ a; b ]) (arm (n - 1)) (oneofa shared));
          (1, map2 (fun a b -> E.mul [ a; b ]) (arm (n - 1)) leaf);
          (2, if_ (n - 1));
        ]
  and if_ n =
    map3
      (fun c a b -> E.if_ conds.(c) a b)
      (int_bound (Array.length conds - 1))
      (arm n) (arm n)
  in
  let stmt =
    frequency
      [
        (4, map (fun e -> (e, `Out)) (if_ 2));
        (1, map (fun e -> (e, `Out)) (arm 2));
        (1, map (fun e -> (e, `Store)) (arm 1));
      ]
  in
  list_size (int_range 2 8) stmt

(* Outputs numbered in order; a store writes [t]. *)
let arm_stmts block =
  let k = ref (-1) in
  List.map
    (fun (e, tgt) ->
      match tgt with
      | `Store -> (e, Vm.To_env 3)
      | `Out ->
          incr k;
          (e, Vm.To_out !k))
    block

let n_outs stmts =
  List.fold_left
    (fun n (_, t) -> match t with Vm.To_out _ -> n + 1 | Vm.To_env _ -> n)
    0 stmts

(* The reference: each statement evaluated in order, stores included. *)
let eval_stmts stmts env0 =
  let env = Array.copy env0 in
  let out = Array.make (n_outs stmts) 0. in
  List.iter
    (fun (e, tgt) ->
      let v =
        Eval.eval
          (Eval.env_of_list (Array.to_list (Array.map2 (fun n v -> (n, v)) arm_names env)))
          e
      in
      match tgt with Vm.To_env s -> env.(s) <- v | Vm.To_out s -> out.(s) <- v)
    stmts;
  out

let arm_env_gen =
  QCheck.Gen.(
    array_repeat 4
      (oneof [ float_range (-2.) 2.; oneofl [ 0.; -0.; 1.5; -2.; nan ] ]))

let prop_shared_arms_match_eval =
  QCheck.Test.make ~name:"shared arms match tree evaluation" ~count:500
    (QCheck.make
       ~print:(fun (block, _) ->
         String.concat "; "
           (List.map
              (fun (e, tgt) ->
                Fmt.str "%s%a" (match tgt with `Store -> "t := " | `Out -> "")
                  E.pp e)
              block))
       QCheck.Gen.(pair arm_block_gen (array_size (int_range 1 9) arm_env_gen)))
    (fun (block, envs) ->
      let stmts = arm_stmts block in
      let nout = n_outs stmts in
      let layout = Om_expr.Layout.of_names arm_names in
      let compile ?optimize stmts =
        Vm.compile_stmts ?optimize ~out_size:nout layout stmts
      in
      let run p env0 =
        let env = Array.copy env0 and out = Array.make nout 0. in
        Vm.exec p ~env ~out;
        out
      in
      let shared = compile stmts and lowered = compile ~optimize:false stmts in
      (* A statement holds at most one If at statement scope. *)
      let singles = List.map (fun s -> compile [ s ]) stmts in
      let run_singles env0 =
        let env = Array.copy env0 and out = Array.make nout 0. in
        List.iter (fun p -> Vm.exec p ~env ~out) singles;
        out
      in
      (* The VM folds a sum from its first operand, [Eval] from [0.],
         so a zero's sign may differ from [Eval]'s; the block and its
         statements one by one must agree bit for bit. *)
      let agree a b =
        Array.for_all2 (fun a b -> same_value a b || (a = 0. && b = 0.)) a b
      in
      let scalar_ok =
        Array.for_all
          (fun env ->
            let expected = eval_stmts stmts env in
            let got = run shared env in
            agree expected got
            && agree expected (run lowered env)
            && Array.for_all2 same_value (run_singles env) got)
          envs
      in
      (* Lane [j] runs [envs.(j)]: lanes diverge wherever their
         conditions do, and must give the scalar program's bits. *)
      let width = Array.length envs in
      let b = Vb.create shared ~width in
      let env = Array.init 4 (fun i -> Array.init width (fun j -> envs.(j).(i))) in
      let out = Array.init nout (fun _ -> Array.make width 0.) in
      Vb.exec b ~env ~out ~lo:0 ~hi:width;
      let batch_ok = ref true in
      Array.iteri
        (fun j e ->
          let scalar = run shared e in
          Array.iteri
            (fun k v ->
              if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float out.(k).(j)))
              then batch_ok := false)
            scalar)
        envs;
      scalar_ok && !batch_ok)

(* Two Ifs on one condition whose arms share a subterm: the second
   computes it no more, and both still take their own branch's value;
   a store in between starts over. *)
let test_vm_shared_arms () =
  let s = E.sin (E.add [ x; y ]) in
  let c = E.cond x E.Gt E.zero in
  let first = (E.if_ c (E.mul [ s; y ]) z, Vm.To_out 0)
  and second = (E.if_ c (E.add [ s; z ]) y, Vm.To_out 1) in
  let layout = Om_expr.Layout.of_names [| "x"; "y"; "z"; "w" |] in
  let p stmts = Vm.compile_stmts ~optimize:false ~out_size:2 layout stmts in
  let sines p =
    Array.fold_left
      (fun n (i : Om_expr.Vm_code.instr) ->
        match i with Call1 (_, E.Sin, _) -> n + 1 | _ -> n)
      0 (Vm.instructions p)
  in
  let shared = p [ first; second ] in
  Alcotest.(check int) "sine once" 1 (sines shared);
  Alcotest.(check int)
    "sine twice across a store" 2
    (sines (p [ first; (z, Vm.To_env 3); second ]));
  List.iter
    (fun env0 ->
      let out = [| 0.; 0. |] in
      Vm.exec shared ~env:(Array.copy env0) ~out;
      let sx = Float.sin (env0.(0) +. env0.(1)) in
      let expect =
        if env0.(0) > 0. then [| sx *. env0.(1); sx +. env0.(2) |]
        else [| env0.(2); env0.(1) |]
      in
      Alcotest.(check (array (float 0.))) "outputs" expect out)
    [ [| 0.5; 1.5; 0.25; 0. |]; [| -0.5; 1.5; 0.25; 0. |] ]

(* Steady-state zero allocation: the per-exec minor-word slope between
   two loop lengths must be exactly zero. *)
let test_vm_exec_no_alloc () =
  let e =
    E.add
      [
        E.mul [ x; y ];
        E.sin (E.mul [ z; x ]);
        E.if_ (E.cond x E.Lt y) (E.hypot x z) (E.powi y 2);
      ]
  in
  let p = vm_compile [| "x"; "y"; "z" |] e in
  let env = [| 0.3; 0.7; -1.2 |] in
  let out = [| 0. |] in
  let words n =
    (* Warm up so any one-time allocation is excluded. *)
    Vm.exec p ~env ~out;
    let before = Gc.minor_words () in
    for _ = 1 to n do
      Vm.exec p ~env ~out
    done;
    Gc.minor_words () -. before
  in
  let d1 = words 1_000 in
  let d2 = words 11_000 in
  Alcotest.(check (float 0.)) "zero words per exec" 0. (d2 -. d1)

(* ---------- substitution ---------- *)

let test_subst () =
  let module Smap = Map.Make (String) in
  let apply bindings =
    Subst.apply_map
      (List.fold_left (fun m (v, e) -> Smap.add v e m) Smap.empty bindings)
  in
  check_expr "x -> y+1 in x²"
    (E.powi (E.add [ y; E.one ]) 2)
    (apply [ ("x", E.add [ y; E.one ]) ] (E.powi x 2));
  check_expr "simultaneous swap"
    (E.sub y x)
    (apply [ ("x", y); ("y", x) ] (E.sub x y))

let test_rename () =
  check_expr "rename"
    (E.add [ E.var "a.x"; E.var "a.y" ])
    (Subst.rename (fun v -> "a." ^ v) (E.add [ x; y ]))

(* ---------- cost model ---------- *)

let test_cost_basics () =
  check_float "add" 1. (Cost.flops (E.add [ x; y ]));
  check_float "leaf" 0. (Cost.flops x);
  check_float "sin" 20. (Cost.flops (E.sin x));
  Alcotest.(check bool)
    "worst case >= mean" true
    (let e =
       E.if_ (E.cond x E.Lt y) (E.sin (E.sin x)) y
     in
     Cost.flops e >= Cost.flops_mean e)

let test_cost_if_branches () =
  let e = E.if_ (E.cond x E.Lt y) (E.sin x) E.zero in
  (* worst: cmp (1) + sin (20); mean: 1 + 10 *)
  check_float "worst" 21. (Cost.flops e);
  check_float "mean" 11. (Cost.flops_mean e)

(* ---------- prefix form ---------- *)

let test_prefix_form_basic () =
  Alcotest.(check string)
    "plus" "Plus[x, y]"
    (Pf.to_string (E.add [ x; y ]));
  Alcotest.(check string)
    "annotated"
    "Sin[om$Type[x, om$Real]]"
    (Pf.to_string ~annotate:true (E.sin x))

let prefix_fuzz_chars = "PlusTimesSinIf[],. 0123456789-eqxyz$_"

let prop_prefix_parser_total =
  QCheck.Test.make ~name:"FullForm parser fails only with Failure" ~count:500
    (QCheck.make
       ~print:(fun s -> s)
       QCheck.Gen.(
         let* n = int_range 0 60 in
         let* chars =
           list_size (return n)
             (map
                (fun i -> prefix_fuzz_chars.[i])
                (int_bound (String.length prefix_fuzz_chars - 1)))
         in
         return (String.init (List.length chars) (List.nth chars))))
    (fun text ->
      match Pf.of_string text with
      | _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

let prop_prefix_roundtrip =
  QCheck.Test.make ~name:"prefix form parses back" ~count:300 arbitrary_expr
    (fun e ->
      E.equal e (Pf.of_string (Pf.to_string e)))

let prop_prefix_roundtrip_annotated =
  QCheck.Test.make ~name:"annotated prefix form parses back" ~count:200
    arbitrary_expr (fun e ->
      E.equal e (Pf.of_string (Pf.to_string ~annotate:true e)))

let test_prefix_lines () =
  let e =
    E.add (List.init 30 (fun i -> E.mul [ E.int (i + 1); E.sin (E.var (Printf.sprintf "v%d" i)) ]))
  in
  let lines = Pf.to_lines ~width:60 e in
  Alcotest.(check bool) "wrapped" true (List.length lines > 3);
  (* Re-joining and parsing must restore the expression. *)
  let joined = String.concat " " lines in
  Alcotest.(check bool) "reparses" true (E.equal e (Pf.of_string joined))

(* ---------- compare/hash ---------- *)

let prop_hash_consistent =
  QCheck.Test.make ~name:"equal implies same hash" ~count:200
    (QCheck.pair arbitrary_expr arbitrary_expr) (fun (a, b) ->
      (not (E.equal a b)) || E.hash a = E.hash b)

(* Constants that [equal] does not tell apart hash alike: [0.] and
   [-0.], and NaNs of different payloads.  [special] turns some of a
   random term's constants into these, [twist] swaps each for its twin;
   both rebuild with the raw constructors, so nothing folds. *)
let prop_hash_follows_equal =
  let special c =
    match Float.to_int (Float.abs c) mod 4 with
    | 0 -> 0.
    | 1 -> -0.
    | 2 -> Float.nan
    | _ -> c
  in
  let twist c =
    if Float.is_nan c then Int64.float_of_bits 0x7FF0000000000123L
    else if c = 0. then Float.neg c
    else c
  in
  let consts f = E.map_exact (function E.Const c -> Some (E.const (f c)) | _ -> None) in
  QCheck.Test.make ~name:"equal implies equal stored hash" ~count:500
    arbitrary_expr (fun e ->
      let a = consts special e in
      let b = consts twist a in
      E.equal a b && E.hash a = E.hash b && E.compare a b = 0)

(* [atan2 e e] iterated 40 times: a tree of 2^41 - 1 nodes in a DAG of
   41.  Hashing reads a stored field, [intern] and [vars] visit each
   node once; [intern] still tells [-0.] from [0.]. *)
let test_hash_deep_dag () =
  let rec build n e = if n = 0 then e else build (n - 1) (E.call E.Atan2 [ e; e ]) in
  let d = build 40 (E.var "x") in
  let t0 = Unix.gettimeofday () in
  let h = E.hash d in
  let rows = E.intern [| E.call E.Atan2 [ d; E.const 0. ]; E.call E.Atan2 [ d; E.const (-0.) ] |] in
  let vs = E.vars d in
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 0.5 then Alcotest.failf "hash, intern and vars took %.3f s" dt;
  Alcotest.(check int) "hash is stored" h (E.hash (build 40 (E.var "x")));
  Alcotest.(check (list string)) "vars" [ "x" ] vs;
  match (rows.(0), rows.(1)) with
  | E.Call (_, [ d0; E.Const z0 ], _), E.Call (_, [ d1; E.Const z1 ], _) ->
      Alcotest.(check bool) "one shared subterm" true (d0 == d1);
      Alcotest.(check bool) "distinct rows" true (rows.(0) != rows.(1));
      Alcotest.(check (pair int64 int64)) "zeros by bits"
        (0L, Int64.bits_of_float (-0.))
        (Int64.bits_of_float z0, Int64.bits_of_float z1)
  | _ -> Alcotest.fail "rows are not atan2 calls"

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:200
    (QCheck.pair arbitrary_expr arbitrary_expr) (fun (a, b) ->
      Int.compare (E.compare a b) 0 = -Int.compare (E.compare b a) 0)

let () =
  let q = Qcheck_seed.to_alcotest in
  Alcotest.run "om_expr"
    [
      ( "hash",
        [
          q prop_hash_follows_equal;
          Alcotest.test_case "a 2^40-node tree in a 41-node DAG" `Quick
            test_hash_deep_dag;
        ] );
      ( "constructors",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "like terms" `Quick test_like_terms;
          Alcotest.test_case "flattening" `Quick test_flattening;
          Alcotest.test_case "commutativity" `Quick test_commutativity;
          Alcotest.test_case "if collapse" `Quick test_if_collapse;
          Alcotest.test_case "call arity" `Quick test_call_arity;
          Alcotest.test_case "vars" `Quick test_vars;
          Alcotest.test_case "pretty printing" `Quick test_pp_roundtrip_sanity;
          Alcotest.test_case "pretty-print golden" `Quick test_pp_golden;
          q prop_add_mul_match_table_oracle;
          q prop_mul_into_matches_mul;
        ] );
      ( "deriv",
        [
          Alcotest.test_case "table" `Quick test_deriv_table;
          Alcotest.test_case "product rule" `Quick test_deriv_product_rule;
          Alcotest.test_case "jacobian on the bearing" `Quick
            test_jacobian_matches_diff;
          Alcotest.test_case "jacobian with a non-finite constant" `Quick
            test_jacobian_nonfinite;
          q prop_jacobian_matches_diff;
          q prop_deriv_matches_finite_difference;
        ] );
      ( "eval",
        [
          Alcotest.test_case "unbound" `Quick test_eval_unbound;
          Alcotest.test_case "duplicate env keys" `Quick
            test_env_of_list_duplicates;
          q prop_cost_dyn_value_agrees;
          q prop_cost_dyn_within_static_bounds;
        ] );
      ( "vm",
        [
          q prop_vm_matches_eval;
          q prop_vm_peephole_preserves_value;
          q prop_vm_peephole_fixpoint;
          q prop_vm_peephole_never_grows_code;
          q prop_vm_code_size_linear;
          Alcotest.test_case "unbound" `Quick test_vm_unbound;
          Alcotest.test_case "conditional" `Quick test_vm_conditional_branches;
          Alcotest.test_case "disassemble" `Quick test_vm_disassemble;
          Alcotest.test_case "fusion" `Quick test_vm_fusion;
          Alcotest.test_case "constant folding" `Quick test_vm_constant_folding;
          Alcotest.test_case "negation and nan" `Quick test_vm_neg_nan;
          Alcotest.test_case "statement block" `Quick test_vm_stmts;
          Alcotest.test_case "dag sharing" `Quick test_vm_dag_sharing;
          Alcotest.test_case "sharing across if" `Quick
            test_vm_shared_across_if;
          Alcotest.test_case "sharing across store" `Quick
            test_vm_shared_across_store;
          Alcotest.test_case "arms shared across equal conditions" `Quick
            test_vm_shared_arms;
          Alcotest.test_case "no allocation" `Quick test_vm_exec_no_alloc;
        ] );
      ("arms", [ q prop_shared_arms_match_eval ]);
      ( "subst",
        [
          Alcotest.test_case "substitution" `Quick test_subst;
          Alcotest.test_case "rename" `Quick test_rename;
        ] );
      ( "cost",
        [
          Alcotest.test_case "basics" `Quick test_cost_basics;
          Alcotest.test_case "if branches" `Quick test_cost_if_branches;
        ] );
      ( "prefix_form",
        [
          Alcotest.test_case "basic" `Quick test_prefix_form_basic;
          Alcotest.test_case "wrapping" `Quick test_prefix_lines;
          q prop_prefix_roundtrip;
          q prop_prefix_parser_total;
          q prop_prefix_roundtrip_annotated;
        ] );
      ( "order",
        [ q prop_hash_consistent; q prop_compare_total_order ] );
    ]
