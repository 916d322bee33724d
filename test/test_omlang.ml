(* Tests for the modelling-language frontend: lexer, parser, flattening
   semantics (inheritance, composition, instance arrays, bindings) and the
   typed intermediate form. *)

module Lexer = Om_lang.Lexer
module Token = Om_lang.Token
module Parser = Om_lang.Parser
module Flatten = Om_lang.Flatten
module Fm = Om_lang.Flat_model
module Tc = Om_lang.Typecheck
module E = Om_expr.Expr
module Ast = Om_lang.Ast

let flat = Flatten.flatten_string

let states m = List.map fst m.Fm.states
let rhs m s = Fm.rhs_of m s

let check_expr msg expected actual =
  Alcotest.check (Alcotest.testable E.pp E.equal) msg expected actual

(* ---------- lexer ---------- *)

let toks src = List.map fst (Lexer.tokenize src)

let test_lexer_basic () =
  Alcotest.(check bool) "keywords and idents" true
    (toks "model M; class x end"
    = [ Token.KW_MODEL; IDENT "M"; SEMI; KW_CLASS; IDENT "x"; KW_END; EOF ])

let test_lexer_numbers () =
  Alcotest.(check bool) "floats" true
    (toks "1 2.5 1e-3 10.25e2"
    = [ Token.NUMBER 1.; NUMBER 2.5; NUMBER 1e-3; NUMBER 1025.; EOF ])

let test_lexer_operators () =
  Alcotest.(check bool) "ops" true
    (toks "a <= b >= c < d > e ^ f .. g"
    = [
        Token.IDENT "a"; LE; IDENT "b"; GE; IDENT "c"; LT; IDENT "d"; GT;
        IDENT "e"; CARET; IDENT "f"; DOTDOT; IDENT "g"; EOF;
      ])

let test_lexer_comments () =
  Alcotest.(check bool) "line and block comments" true
    (toks "a // comment\n b (* multi \n line (* nested *) *) c"
    = [ Token.IDENT "a"; IDENT "b"; IDENT "c"; EOF ])

let test_lexer_unterminated_comment () =
  (match Lexer.tokenize "(* oops" with
  | exception Lexer.Error (msg, _) ->
      Alcotest.(check string) "msg" "unterminated comment" msg
  | _ -> Alcotest.fail "expected error")

let test_lexer_bad_char () =
  match Lexer.tokenize "a ? b" with
  | exception Lexer.Error (_, pos) ->
      Alcotest.(check int) "column" 3 pos.col
  | _ -> Alcotest.fail "expected error"

let test_lexer_positions () =
  let l = Lexer.tokenize "a\n  b" in
  match l with
  | [ (_, p1); (_, p2); _ ] ->
      Alcotest.(check int) "line 1" 1 p1.line;
      Alcotest.(check int) "line 2" 2 p2.line;
      Alcotest.(check int) "col 3" 3 p2.col
  | _ -> Alcotest.fail "token count"

(* ---------- parser ---------- *)

let test_parser_precedence () =
  (* a + b * c ^ 2 parses as a + (b * (c ^ 2)) *)
  let e = Parser.parse_expr "1 + 2 * 3 ^ 2" in
  let v =
    match e with
    | Ast.Snum _ -> Alcotest.fail "not folded at parse time"
    | _ -> e
  in
  ignore v;
  (* Evaluate through elaboration: flatten a model using it. *)
  let m =
    flat
      {|model M; class C variable x init 1 + 2 * 3 ^ 2; equation der(x) = 0.0 - x; end; instance c of C;|}
  in
  Alcotest.(check (float 1e-12)) "1+2*9" 19. (List.assoc "c.x" m.states)

let test_parser_unary_minus () =
  let m =
    flat
      {|model M; class C variable x init -2 ^ 2; equation der(x) = x; end; instance c of C;|}
  in
  (* -2^2 parses as -(2^2) = -4: exponentiation binds tighter than
     unary minus, as in mathematics. *)
  Alcotest.(check (float 1e-12)) "unary minus" (-4.) (List.assoc "c.x" m.states)

let test_parser_if () =
  let e = Parser.parse_expr "if a < b then 1 else 2" in
  match e with
  | Ast.Sif ({ sc_rel = E.Lt; _ }, Snum 1., Snum 2.) -> ()
  | _ -> Alcotest.fail "if structure"

let test_parser_error_position () =
  match Parser.parse_model "model M; class C parameter = 3; end;" with
  | exception Parser.Error (_, pos) ->
      Alcotest.(check int) "line" 1 pos.line
  | _ -> Alcotest.fail "expected error"

let test_parser_qualified_names () =
  let e = Parser.parse_expr "A[3].sub.x" in
  match e with
  | Ast.Sname { segments = [ s1; s2; s3 ] } ->
      Alcotest.(check string) "base" "A" s1.base;
      Alcotest.(check bool) "index" true (s1.index <> None);
      Alcotest.(check string) "mid" "sub" s2.base;
      Alcotest.(check string) "leaf" "x" s3.base
  | _ -> Alcotest.fail "segments"

let test_parser_call_args () =
  match Parser.parse_expr "atan2(y, x)" with
  | Ast.Scall ("atan2", [ _; _ ]) -> ()
  | _ -> Alcotest.fail "call with two args"

(* ---------- flatten: basic semantics ---------- *)

let test_flatten_simple () =
  let m =
    flat
      {|model M; class C variable x init 3.5; equation der(x) = 0.0 - x; end; instance c of C;|}
  in
  Alcotest.(check (list string)) "states" [ "c.x" ] (states m);
  check_expr "rhs" (E.neg (E.var "c.x")) (rhs m "c.x")

let test_flatten_params_substituted () =
  let m =
    flat
      {|model M; class C parameter k = 2.0; parameter k2 = k * 3.0;
        variable x; equation der(x) = k2 * x; end; instance c of C;|}
  in
  check_expr "k2 = 6" E.(mul [ const 6.; var "c.x" ]) (rhs m "c.x")

let test_flatten_alias_chain () =
  let m =
    flat
      {|model M; class C variable x; alias a = x + 1.0; alias b = a * a;
        equation der(x) = b; end; instance c of C;|}
  in
  check_expr "b expanded" (E.powi (E.add [ E.var "c.x"; E.one ]) 2) (rhs m "c.x")

let test_flatten_alias_cycle () =
  match
    flat
      {|model M; class C variable x; alias a = b; alias b = a;
        equation der(x) = a; end; instance c of C;|}
  with
  | exception Flatten.Error msg ->
      Alcotest.(check bool) "mentions loop" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected algebraic loop error"

let test_flatten_time () =
  let m =
    flat
      {|model M; class C variable x; equation der(x) = sin(time); end; instance c of C;|}
  in
  check_expr "time -> t" (E.sin (E.var "t")) (rhs m "c.x")

(* ---------- flatten: inheritance ---------- *)

let test_inheritance_members_merged () =
  let m =
    flat
      {|model M;
        class Base parameter k = 1.0; variable x; equation der(x) = k * x; end;
        class Child extends Base variable y; equation der(y) = x; end;
        instance c of Child;|}
  in
  Alcotest.(check (list string)) "both states" [ "c.x"; "c.y" ]
    (List.sort compare (states m))

let test_inheritance_with_rebinding () =
  let m =
    flat
      {|model M;
        class Base parameter k = 1.0; variable x; equation der(x) = k * x; end;
        class Child extends Base with k = 5.0 end;
        instance c of Child;|}
  in
  check_expr "k rebound" E.(mul [ const 5.; var "c.x" ]) (rhs m "c.x")

let test_inheritance_override_equation () =
  let m =
    flat
      {|model M;
        class Base variable x; equation der(x) = x; end;
        class Child extends Base equation der(x) = 2.0 * x; end;
        instance c of Child;|}
  in
  check_expr "child equation wins" E.(mul [ const 2.; var "c.x" ]) (rhs m "c.x")

let test_inheritance_unknown_parent () =
  match
    flat {|model M; class C extends Nope variable x; equation der(x) = x; end; instance c of C;|}
  with
  | exception Flatten.Error msg ->
      Alcotest.(check string) "msg" "unknown class Nope (parent of class C)"
        msg
  | _ -> Alcotest.fail "expected error"

let test_inheritance_cycle () =
  match
    flat {|model M; class A extends B end; class B extends A end; instance a of A;|}
  with
  | exception Flatten.Error msg ->
      Alcotest.(check bool) "cycle" true
        (String.length msg >= 5)
  | _ -> Alcotest.fail "expected error"

let test_inheritance_bad_rebinding () =
  match
    flat
      {|model M; class Base variable x; equation der(x) = x; end;
        class C extends Base with nothere = 1.0 end; instance c of C;|}
  with
  | exception Flatten.Error _ -> ()
  | _ -> Alcotest.fail "expected error"

(* ---------- flatten: composition ---------- *)

let test_part_prefixing () =
  let m =
    flat
      {|model M;
        class Inner variable v; equation der(v) = u - v; end;
        class Outer variable w; part p : Inner with u = w;
        equation der(w) = 0.0 - w; end;
        instance o of Outer;|}
  in
  Alcotest.(check (list string)) "nested names" [ "o.p.v"; "o.w" ]
    (List.sort compare (states m));
  check_expr "part binding sees enclosing local"
    (E.sub (E.var "o.w") (E.var "o.p.v"))
    (rhs m "o.p.v")

let test_nested_parts () =
  let m =
    flat
      {|model M;
        class A variable a; equation der(a) = a; end;
        class B part inner : A; end;
        class C part mid : B; variable c; equation der(c) = mid.inner.a; end;
        instance top of C;|}
  in
  Alcotest.(check bool) "deep name" true
    (List.mem "top.mid.inner.a" (states m));
  check_expr "part path resolution" (E.var "top.mid.inner.a") (rhs m "top.c")

(* ---------- flatten: instances ---------- *)

let test_instance_array_and_index () =
  let m =
    flat
      {|model M; class C parameter phase = 0.0; variable x init phase;
        equation der(x) = x; end;
        instance a[1..3] of C with phase = 10.0 * index;|}
  in
  Alcotest.(check (list string)) "three instances"
    [ "a[1].x"; "a[2].x"; "a[3].x" ]
    (states m);
  Alcotest.(check (float 1e-12)) "index in binding" 20.
    (List.assoc "a[2].x" m.states)

let test_cross_instance_reference () =
  let m =
    flat
      {|model M;
        class P variable v; equation der(v) = 0.0 - v; end;
        class Q variable w; equation der(w) = src - w; end;
        instance p of P;
        instance q of Q with src = p.v;|}
  in
  check_expr "reads other instance" (E.sub (E.var "p.v") (E.var "q.w"))
    (rhs m "q.w")

let test_cross_instance_alias_reference () =
  let m =
    flat
      {|model M;
        class P variable v; alias double = 2.0 * v; equation der(v) = 0.0 - v; end;
        class Q variable w; equation der(w) = src; end;
        instance p of P;
        instance q of Q with src = p.double;|}
  in
  check_expr "alias expanded across instances"
    E.(mul [ const 2.; var "p.v" ])
    (rhs m "q.w")

let test_unresolved_name () =
  match
    flat {|model M; class C variable x; equation der(x) = ghost; end; instance c of C;|}
  with
  | exception Flatten.Error msg ->
      Alcotest.(check bool) "mentions ghost" true
        (String.length msg > 0 && String.sub msg 0 10 = "unresolved")
  | _ -> Alcotest.fail "expected error"

let test_missing_equation () =
  match
    flat {|model M; class C variable x; variable y; equation der(x) = y; end; instance c of C;|}
  with
  | exception Flatten.Error msg ->
      Alcotest.(check string) "msg" "no equation for state variable c.y" msg
  | _ -> Alcotest.fail "expected error"

let test_duplicate_instance () =
  match
    flat
      {|model M; class C variable x; equation der(x) = x; end;
        instance c of C; instance c of C;|}
  with
  | exception Flatten.Error _ -> ()
  | _ -> Alcotest.fail "expected duplicate error"

let test_nonconstant_init () =
  match
    flat
      {|model M; class C variable x init other; variable other;
        equation der(x) = x; equation der(other) = other; end; instance c of C;|}
  with
  | exception Flatten.Error _ -> ()
  | _ -> Alcotest.fail "expected error"

let test_empty_range () =
  match
    flat {|model M; class C variable x; equation der(x) = x; end; instance a[3..1] of C;|}
  with
  | exception Flatten.Error msg ->
      Alcotest.(check string) "msg" "instance a: empty range" msg
  | _ -> Alcotest.fail "expected error"

let test_no_instances () =
  match flat {|model M; class C variable x; equation der(x) = x; end;|} with
  | exception Flatten.Error msg ->
      Alcotest.(check string) "msg" "model M declares no instances" msg
  | _ -> Alcotest.fail "expected error"

(* The exact text of every flatten error the front end reports. *)
let check_flatten_error name src expected =
  match flat src with
  | exception Flatten.Error msg -> Alcotest.(check string) name expected msg
  | _ -> Alcotest.failf "%s: expected error %S" name expected

let test_flatten_error_messages () =
  check_flatten_error "equation for a parameter"
    {|model M; class C variable x; parameter k = 1.0;
      equation der(x) = x; equation der(k) = x; end; instance c of C;|}
    "equation for c.k, which is not a state variable";
  check_flatten_error "self-referring alias"
    {|model M; class C variable x; alias a = a + x;
      equation der(x) = a; end; instance c of C;|}
    "definition c.a refers to itself";
  check_flatten_error "duplicate variable"
    {|model M; class C variable x; variable x;
      equation der(x) = x; end; instance c of C;|}
    "duplicate definition c.x";
  check_flatten_error "parameter and variable of one name"
    {|model M; class C parameter x = 1.0; variable x;
      equation der(x) = x; end; instance c of C;|}
    "duplicate definition c.x";
  check_flatten_error "duplicate equation"
    {|model M; class C variable x;
      equation der(x) = x; equation der(x) = 0.0 - x; end; instance c of C;|}
    "duplicate equation for c.x";
  check_flatten_error "non-constant initial value"
    {|model M; class C variable x init other; variable other;
      equation der(x) = x; equation der(other) = other; end; instance c of C;|}
    "initial value of c.x does not reduce to a constant (c.other)";
  check_flatten_error "equation for an undeclared name"
    {|model M; class C variable x;
      equation der(x) = x; equation der(y) = x; end; instance c of C;|}
    "equation for undeclared variable y in class C";
  check_flatten_error "duplicate class"
    {|model M; class C variable x; equation der(x) = x; end;
      class C variable y; equation der(y) = y; end; instance c of C;|}
    "duplicate class C"

(* ---------- dependency graph ---------- *)

let test_dependency_graph () =
  let m =
    flat
      {|model M; class C variable x; variable y;
        equation der(x) = y; equation der(y) = y; end; instance c of C;|}
  in
  let g = Fm.dependency_graph m in
  Alcotest.(check int) "2 nodes" 2 (Om_graph.Digraph.node_count g);
  (* y -> x edge (x' depends on y) and y -> y self-loop. *)
  Alcotest.(check bool) "y->x" true (Om_graph.Digraph.mem_edge g 1 0);
  Alcotest.(check bool) "y->y" true (Om_graph.Digraph.mem_edge g 1 1);
  Alcotest.(check bool) "no x->y" false (Om_graph.Digraph.mem_edge g 0 1)

(* ---------- typecheck / intermediate form ---------- *)

let test_intermediate_form () =
  let m =
    flat
      {|model M; class C variable x; equation der(x) = sin(x); end; instance c of C;|}
  in
  let lines = Tc.intermediate_form m in
  let text = String.concat "\n" lines in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has Derivative" true (contains text "Derivative[1]");
  Alcotest.(check bool) "has om$Type" true (contains text "om$Type");
  Alcotest.(check bool) "has annotation for x" true
    (contains text "om$Type[c.x, om$Real]");
  Alcotest.(check int) "count consistent" (List.length lines)
    (Tc.intermediate_line_count m)

let test_typecheck_passes_on_flatten_output () =
  Tc.check (flat {|model M; class C variable x; equation der(x) = x * time; end; instance c of C;|})

let test_typecheck_rejects_broken () =
  let broken =
    { Fm.name = "broken"; states = [ ("x", 0.) ]; equations = [ ("x", E.var "ghost") ] }
  in
  match Tc.check broken with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected rejection"

let check_typecheck_error name m expected =
  match Tc.check m with
  | exception Invalid_argument msg -> Alcotest.(check string) name expected msg
  | () -> Alcotest.failf "%s: expected error %S" name expected

let test_typecheck_error_messages () =
  let model states equations = { Fm.name = "m"; states; equations } in
  check_typecheck_error "free variable"
    (model [ ("x", 0.) ] [ ("x", E.var "ghost") ])
    "Typecheck.check: ghost is free in equation for x";
  check_typecheck_error "state without an equation"
    (model [ ("x", 0.); ("y", 0.) ] [ ("x", E.var "y") ])
    "Typecheck.check: states and equations do not match (states without \
     an equation: y)";
  check_typecheck_error "equation without a state"
    (model [ ("x", 0.) ] [ ("x", E.var "x"); ("z", E.var "x") ])
    "Typecheck.check: states and equations do not match (equations without \
     a state: z)";
  check_typecheck_error "both directions"
    (model [ ("x", 0.); ("y", 0.) ] [ ("x", E.var "x"); ("z", E.var "x") ])
    "Typecheck.check: states and equations do not match (states without \
     an equation: y; equations without a state: z)";
  check_typecheck_error "same names, different multiplicities"
    (model
       [ ("x", 0.); ("x", 0.); ("y", 0.) ]
       [ ("x", E.var "x"); ("y", E.var "y"); ("y", E.var "y") ])
    "Typecheck.check: states and equations do not match (duplicate names)";
  check_typecheck_error "duplicate state"
    (model [ ("x", 1.); ("x", 2.) ] [ ("x", E.var "x"); ("x", E.neg (E.var "x")) ])
    "Typecheck.check: duplicate state x"

(* ---------- unparser ---------- *)

let normalise src =
  (* Unparsing the parse is a normal form for source text. *)
  Om_lang.Unparse.model (Om_lang.Parser.parse_model src)

let test_unparse_fixpoint () =
  List.iter
    (fun src ->
      let once = normalise src in
      Alcotest.(check string) "unparse is a fixpoint" once (normalise once))
    [
      Om_models.Bearing2d.source ();
      Om_models.Powerplant.source ();
      Om_models.Servo.source ();
    ]

let test_unparse_preserves_semantics () =
  (* The unparsed text flattens to the same model. *)
  List.iter
    (fun src ->
      let m1 = flat src in
      let m2 = flat (normalise src) in
      Alcotest.(check (list string)) "same states" (states m1) (states m2);
      List.iter2
        (fun (s1, e1) (s2, e2) ->
          Alcotest.(check string) "same state" s1 s2;
          Alcotest.check (Alcotest.testable E.pp E.equal) s1 e1 e2)
        m1.equations m2.equations)
    [ Om_models.Servo.source (); Om_models.Powerplant.source () ]

let test_unparse_expr_precedence () =
  (* Round-trip through text preserves the tree for tricky precedence. *)
  List.iter
    (fun src ->
      let e = Om_lang.Parser.parse_expr src in
      let text = Om_lang.Unparse.sexpr e in
      let e2 = Om_lang.Parser.parse_expr text in
      Alcotest.(check string) src (Om_lang.Unparse.sexpr e2) text)
    [
      "a + b * c";
      "(a + b) * c";
      "-a ^ 2";
      "a - (b - c)";
      "a / b / c";
      "if a < b then c else d + e";
      "atan2(y, x) ^ 2";
      "W[3].sub.x + 1.0";
    ]

let test_unparse_flat_model () =
  let m1 = flat (Om_models.Servo.source ()) in
  let text = Om_lang.Unparse.flat_model m1 in
  let m2 = flat text in
  Alcotest.(check int) "same dimension" (Fm.dim m1) (Fm.dim m2);
  (* Evaluate both RHS at the same state: must agree. *)
  let sys1 = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m1.equations in
  let sys2 = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m2.equations in
  let y = Array.map (fun (_, v) -> v +. 0.25) (Array.of_list m1.states) in
  let d1 = Om_ode.Odesys.rhs sys1 0.5 y in
  let d2 = Om_ode.Odesys.rhs sys2 0.5 y in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-12)) (string_of_int i) v d2.(i))
    d1

(* ---------- browser ---------- *)

module Browser = Om_lang.Browser

let browse_src =
  {|model M;
    class Base variable x; equation der(x) = x; end;
    class Mid extends Base end;
    class Leaf extends Mid end;
    class Holder part inner : Leaf; part other : Base; end;
    instance h of Holder;
    instance ls[1..3] of Leaf;|}

let test_browser_analyse () =
  let nodes = Browser.analyse (Om_lang.Parser.parse_model browse_src) in
  let find n = List.find (fun (x : Browser.node) -> x.cname = n) nodes in
  Alcotest.(check (option string)) "leaf parent" (Some "Mid") (find "Leaf").parent;
  Alcotest.(check (list string)) "base children" [ "Mid" ] (find "Base").children;
  Alcotest.(check int) "holder parts" 2 (List.length (find "Holder").parts);
  Alcotest.(check (list string)) "leaf instances" [ "ls[1..3]" ]
    (find "Leaf").instances

let test_browser_trees () =
  let ast = Om_lang.Parser.parse_model browse_src in
  let inh = Browser.inheritance_tree ast in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "indented chain" true (contains inh "    Leaf");
  Alcotest.(check bool) "instances annotated" true
    (contains inh "instances: ls[1..3]");
  let comp = Browser.composition_tree ast in
  Alcotest.(check bool) "nested part" true (contains comp "  inner : Leaf");
  let dot = Browser.to_dot ast in
  Alcotest.(check bool) "inheritance edge" true
    (contains dot "\"Leaf\" -> \"Mid\"");
  Alcotest.(check bool) "composition edge dashed" true
    (contains dot "style=dashed")

let test_browser_unknown_parent () =
  let bad = {|model M; class A extends Nope end; instance a of A;|} in
  match Browser.analyse (Om_lang.Parser.parse_model bad) with
  | exception Flatten.Error _ -> ()
  | _ -> Alcotest.fail "expected error"

(* ---------- robustness / fuzzing ---------- *)

(* The frontend must fail only through its own typed errors, never with
   Match_failure / Assert_failure / stack overflow. *)
let well_behaved f =
  match f () with
  | _ -> true
  | exception Lexer.Error _ -> true
  | exception Parser.Error _ -> true
  | exception Flatten.Error _ -> true
  | exception _ -> false

let fuzz_chars = "modelclasinstqjk xyz0123456789.;=+-*/^()[],<>_ \n"

let random_text_gen =
  QCheck.Gen.(
    let* n = int_range 0 120 in
    let* chars =
      list_size (return n)
        (map (fun i -> fuzz_chars.[i]) (int_bound (String.length fuzz_chars - 1)))
    in
    return (String.init (List.length chars) (List.nth chars)))

let prop_parser_total =
  QCheck.Test.make ~name:"frontend fails only with typed errors" ~count:500
    (QCheck.make ~print:(fun s -> s) random_text_gen)
    (fun text -> well_behaved (fun () -> Flatten.flatten_string text))

(* Mutations of a valid model must also behave. *)
let prop_mutated_model_total =
  QCheck.Test.make ~name:"mutated models fail only with typed errors"
    ~count:300
    (QCheck.make
       ~print:(fun (i, c) -> Printf.sprintf "pos %d <- %c" i c)
       QCheck.Gen.(pair (int_bound 2000) (map (fun i -> fuzz_chars.[i])
         (int_bound (String.length fuzz_chars - 1)))))
    (fun (pos, c) ->
      let base = Om_models.Servo.source () in
      let pos = pos mod String.length base in
      let mutated = String.mapi (fun i x -> if i = pos then c else x) base in
      well_behaved (fun () -> Flatten.flatten_string mutated))

(* Directed error-path cases complementing the random properties above:
   each malformed input must fail with the frontend's own typed error —
   carrying a position — not a crash. *)

let typed_error what src =
  match Flatten.flatten_string src with
  | _ -> Alcotest.failf "%s: expected a frontend error" what
  | exception Lexer.Error (msg, pos) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: lexer error %S has a position" what msg)
        true
        (pos.line >= 1 && pos.col >= 1)
  | exception Parser.Error (msg, pos) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: parser error %S has a position" what msg)
        true
        (pos.line >= 1 && pos.col >= 1)

let test_unterminated_comment () =
  typed_error "plain" "model M; (* never closed";
  typed_error "nested" "model M; (* outer (* inner *) still open";
  typed_error "nested at eof" "model M; (* a (* b (* c";
  (* A properly closed nested comment is fine. *)
  ignore
    (Flatten.flatten_string
       {|model M; (* outer (* inner *) closed *)
         class C variable x init 1.0; equation der(x) = 0.0 - x; end;
         instance c of C;|})

let test_bad_tokens () =
  typed_error "stray hash" "model M; # class";
  typed_error "stray quote" "model M; class \"C\"";
  typed_error "stray backslash" "model M; \\";
  typed_error "lone rparen" "model M; class C variable x init );";
  typed_error "bad exponent is two tokens" "model M; class C parameter k = 1e;"

let test_deep_nesting () =
  (* ~1000 balanced parentheses must parse (no stack overflow, value
     preserved through constant folding)... *)
  let depth = 1000 in
  let deep =
    String.concat ""
      (List.init depth (fun _ -> "(")
      @ [ "1.0" ]
      @ List.init depth (fun _ -> ")"))
  in
  let src =
    Printf.sprintf
      "model M; class C variable x init %s; equation der(x) = 0.0 - x; \
       end; instance c of C;"
      deep
  in
  let f = Flatten.flatten_string src in
  Alcotest.(check (float 0.)) "init survives nesting" 1.
    (Om_lang.Flat_model.initial_values f).(0);
  (* ...while unbalanced nesting is a typed parse error. *)
  let unbalanced =
    Printf.sprintf
      "model M; class C variable x init %s1.0; equation der(x) = 0.0; end;"
      (String.concat "" (List.init 40 (fun _ -> "(")))
  in
  typed_error "unbalanced" unbalanced

let test_error_positions () =
  (* Positions must point at the offending token, not the file start. *)
  (match Flatten.flatten_string "model M;\nclass C\n  variable x init ?;\nend;" with
  | _ -> Alcotest.fail "expected lexer error"
  | exception Lexer.Error (_, pos) ->
      Alcotest.(check int) "line of bad char" 3 pos.line);
  match Flatten.flatten_string "model M;\nclass C\n  variable init 1.0;\nend;" with
  | _ -> Alcotest.fail "expected parser error"
  | exception Parser.Error (_, pos) ->
      Alcotest.(check int) "line of bad syntax" 3 pos.line

(* ---------- overrides ---------- *)

module Override = Om_lang.Override

let decay_src =
  {|model M; class C parameter k = 1.0; variable x init 1.0;
    equation der(x) = 0.0 - k * x; end; instance c of C;|}

(* A value written into a model with [set_parameter], then flattened. *)
let flatten_set src ~cls ~param v =
  Om_lang.Flatten.flatten
    (Override.set_parameter (Om_lang.Parser.parse_model src) ~cls ~param v)

let test_override_parameter () =
  let m = flatten_set decay_src ~cls:"C" ~param:"k" 3. in
  check_expr "k = 3" E.(mul [ const (-3.); var "c.x" ]) (rhs m "c.x")

let test_override_unknown () =
  let ast = Om_lang.Parser.parse_model decay_src in
  Alcotest.check_raises "unknown parameter"
    (Override.Unknown_target "parameter nope of class C") (fun () ->
      ignore (Override.set_parameter ast ~cls:"C" ~param:"nope" 1.));
  Alcotest.check_raises "unknown class"
    (Override.Unknown_target "parameter k of class D") (fun () ->
      ignore (Override.set_parameter ast ~cls:"D" ~param:"k" 1.));
  Alcotest.check_raises "promote unknown parameter"
    (Override.Unknown_target "parameter nope of class C") (fun () ->
      ignore (Override.promote_parameter ast ~cls:"C" ~param:"nope"))

let test_override_dependent_parameters () =
  (* Overriding k must propagate through parameters derived from it. *)
  let src =
    {|model M; class C parameter k = 2.0; parameter k2 = k * k;
      variable x; equation der(x) = k2 * x; end; instance c of C;|}
  in
  let m = flatten_set src ~cls:"C" ~param:"k" 5. in
  check_expr "k2 re-elaborated" E.(mul [ const 25.; var "c.x" ]) (rhs m "c.x")

(* Promotion keeps the parameter, so a part binding and a subclass
   binding still rebind it; the instance that takes the default reads
   the frozen state, declared where the parameter was. *)
let test_override_promote () =
  let src =
    {|model M; class C parameter k = 2.0; variable x init k;
      equation der(x) = 0.0 - k * x; end;
      class E extends C with k = 3.0 end;
      class D part p : C with k = 4.0; part q : C; end;
      instance c of C; instance e of E; instance d of D;|}
  in
  let ast =
    Override.promote_parameter (Om_lang.Parser.parse_model src) ~cls:"C"
      ~param:"k"
  in
  let p = Om_lang.Flatten.flatten_promoted ast in
  let k' = Override.frozen ~cls:"C" ~param:"k" in
  Alcotest.(check bool) "frozen name" true (Override.is_frozen k');
  Alcotest.(check (list string))
    "state order"
    (List.concat_map
       (fun i -> [ i ^ "." ^ k'; i ^ ".x" ])
       [ "c"; "e"; "d.p"; "d.q" ])
    (List.map fst p.flat.states);
  Alcotest.(check (list (float 0.)))
    "defaults" [ 2.; 2.; 2.; 3.; 2.; 4.; 2.; 2. ]
    (List.map snd p.flat.states);
  Alcotest.(check (list string))
    "reached" [ "c." ^ k'; "d.q." ^ k' ] p.reached;
  check_expr "bound in the subclass" E.(mul [ const (-3.); var "e.x" ])
    (rhs p.flat "e.x");
  check_expr "bound on the part" E.(mul [ const (-4.); var "d.p.x" ])
    (rhs p.flat "d.p.x");
  check_expr "default reads the frozen state"
    E.(neg (mul [ var ("c." ^ k'); var "c.x" ]))
    (rhs p.flat "c.x");
  Alcotest.(check (list string))
    "initial values that read the frozen state" [ "c.x"; "d.q.x" ]
    (List.map fst p.inits)

(* ---------- whole-model smoke ---------- *)

let test_flatten_solves () =
  (* der(x) = -x from source, solved end to end. *)
  let m =
    flat {|model M; class C variable x init 1.0; equation der(x) = 0.0 - x; end; instance c of C;|}
  in
  let sys = Om_ode.Odesys.of_equations m.equations in
  let tr =
    Om_ode.Rk.rkf45 sys ~t0:0. ~y0:(Fm.initial_values m) ~tend:1.
  in
  Alcotest.(check (float 1e-4)) "exp(-1)" (Float.exp (-1.))
    (Om_ode.Odesys.final_state tr).(0)

let () =
  Alcotest.run "om_lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "unterminated comment" `Quick
            test_lexer_unterminated_comment;
          Alcotest.test_case "bad character" `Quick test_lexer_bad_char;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "unary minus" `Quick test_parser_unary_minus;
          Alcotest.test_case "if expression" `Quick test_parser_if;
          Alcotest.test_case "error position" `Quick test_parser_error_position;
          Alcotest.test_case "qualified names" `Quick
            test_parser_qualified_names;
          Alcotest.test_case "call arguments" `Quick test_parser_call_args;
        ] );
      ( "flatten",
        [
          Alcotest.test_case "simple" `Quick test_flatten_simple;
          Alcotest.test_case "parameters" `Quick test_flatten_params_substituted;
          Alcotest.test_case "alias chain" `Quick test_flatten_alias_chain;
          Alcotest.test_case "alias cycle" `Quick test_flatten_alias_cycle;
          Alcotest.test_case "time" `Quick test_flatten_time;
        ] );
      ( "inheritance",
        [
          Alcotest.test_case "members merged" `Quick
            test_inheritance_members_merged;
          Alcotest.test_case "with rebinding" `Quick
            test_inheritance_with_rebinding;
          Alcotest.test_case "equation override" `Quick
            test_inheritance_override_equation;
          Alcotest.test_case "unknown parent" `Quick
            test_inheritance_unknown_parent;
          Alcotest.test_case "cycle" `Quick test_inheritance_cycle;
          Alcotest.test_case "bad rebinding" `Quick
            test_inheritance_bad_rebinding;
        ] );
      ( "composition",
        [
          Alcotest.test_case "part prefixing" `Quick test_part_prefixing;
          Alcotest.test_case "nested parts" `Quick test_nested_parts;
        ] );
      ( "instances",
        [
          Alcotest.test_case "arrays and index" `Quick
            test_instance_array_and_index;
          Alcotest.test_case "cross-instance state" `Quick
            test_cross_instance_reference;
          Alcotest.test_case "cross-instance alias" `Quick
            test_cross_instance_alias_reference;
          Alcotest.test_case "unresolved name" `Quick test_unresolved_name;
          Alcotest.test_case "missing equation" `Quick test_missing_equation;
          Alcotest.test_case "duplicate instance" `Quick
            test_duplicate_instance;
          Alcotest.test_case "non-constant init" `Quick test_nonconstant_init;
          Alcotest.test_case "empty range" `Quick test_empty_range;
          Alcotest.test_case "no instances" `Quick test_no_instances;
          Alcotest.test_case "error messages" `Quick
            test_flatten_error_messages;
        ] );
      ( "analysis",
        [ Alcotest.test_case "dependency graph" `Quick test_dependency_graph ] );
      ( "typecheck",
        [
          Alcotest.test_case "intermediate form" `Quick test_intermediate_form;
          Alcotest.test_case "accepts flatten output" `Quick
            test_typecheck_passes_on_flatten_output;
          Alcotest.test_case "rejects broken model" `Quick
            test_typecheck_rejects_broken;
          Alcotest.test_case "error messages" `Quick
            test_typecheck_error_messages;
        ] );
      ( "unparse",
        [
          Alcotest.test_case "fixpoint" `Quick test_unparse_fixpoint;
          Alcotest.test_case "preserves semantics" `Quick
            test_unparse_preserves_semantics;
          Alcotest.test_case "expression precedence" `Quick
            test_unparse_expr_precedence;
          Alcotest.test_case "flat model" `Quick test_unparse_flat_model;
        ] );
      ( "browser",
        [
          Alcotest.test_case "analyse" `Quick test_browser_analyse;
          Alcotest.test_case "trees and dot" `Quick test_browser_trees;
          Alcotest.test_case "unknown parent" `Quick
            test_browser_unknown_parent;
        ] );
      ( "robustness",
        [
          Qcheck_seed.to_alcotest prop_parser_total;
          Qcheck_seed.to_alcotest prop_mutated_model_total;
          Alcotest.test_case "unterminated comments" `Quick
            test_unterminated_comment;
          Alcotest.test_case "bad tokens" `Quick test_bad_tokens;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "error positions" `Quick test_error_positions;
        ] );
      ( "override",
        [
          Alcotest.test_case "parameter" `Quick test_override_parameter;
          Alcotest.test_case "unknown target" `Quick test_override_unknown;
          Alcotest.test_case "promote" `Quick test_override_promote;
          Alcotest.test_case "dependent parameters" `Quick
            test_override_dependent_parameters;
        ] );
      ( "integration",
        [ Alcotest.test_case "source to solution" `Quick test_flatten_solves ] );
    ]
