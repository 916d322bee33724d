(* Tests for the code generator: assignments, CSE, partitioning,
   communication analysis, textual backends and the executable bytecode
   backend. *)

module E = Om_expr.Expr
module A = Om_codegen.Assignments
module Cse = Om_codegen.Cse
module Part = Om_codegen.Partition
module Comm = Om_codegen.Comm_analysis
module Bc = Om_codegen.Bytecode_backend
module F = Om_codegen.Fortran
module C = Om_codegen.C_backend
module P = Om_codegen.Pipeline
module Stats = Om_codegen.Stats
module Fm = Om_lang.Flat_model

let x = E.var "x"
let y = E.var "y"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let tiny_model src = Om_lang.Flatten.flatten_string src

let oscillator =
  {|model Osc; class C variable x init 1.0; variable y;
    equation der(x) = y; equation der(y) = 0.0 - x; end; instance c of C;|}

(* ---------- assignments ---------- *)

let test_assignments () =
  let m = tiny_model oscillator in
  let a = A.of_flat_model m in
  Alcotest.(check int) "two" 2 (Array.length a);
  Alcotest.(check string) "target name" "c.x$dot" a.(0).target;
  Alcotest.(check int) "index" 1 a.(1).state_index;
  Alcotest.(check bool) "cost nonneg" true (A.cost a.(0) >= 0.)

(* ---------- cse ---------- *)

let test_cse_extracts_shared () =
  (* (x+y)*sin(x+y): x+y occurs twice. *)
  let shared = E.add [ x; y ] in
  let e = E.mul [ shared; E.sin shared ] in
  let block = Cse.eliminate [ ("out", e) ] in
  Alcotest.(check int) "one temp" 1 (Cse.temp_count block);
  Alcotest.(check bool) "ordered" true (Cse.verify_no_forward_refs block)

let test_cse_no_sharing_no_temp () =
  let block = Cse.eliminate [ ("out", E.add [ x; E.sin y ]) ] in
  Alcotest.(check int) "no temps" 0 (Cse.temp_count block)

let test_cse_across_targets () =
  let shared = E.mul [ x; E.cos y ] in
  let block =
    Cse.eliminate [ ("a", E.add [ shared; E.one ]); ("b", E.sub shared y) ]
  in
  Alcotest.(check int) "shared across roots" 1 (Cse.temp_count block)

let test_cse_inline_roundtrip () =
  let shared = E.add [ x; y ] in
  let targets =
    [ ("a", E.mul [ shared; shared; E.sin shared ]); ("b", E.sqrt shared) ]
  in
  let block = Cse.eliminate targets in
  let restored = Cse.inline block in
  List.iter2
    (fun (n1, e1) (n2, e2) ->
      Alcotest.(check string) "target" n1 n2;
      Alcotest.check (Alcotest.testable E.pp E.equal) "expr" e1 e2)
    targets restored

let test_cse_min_size_threshold () =
  (* x+y has size 3; with min_size 4 it is not extracted. *)
  let shared = E.add [ x; y ] in
  let e = E.mul [ shared; E.sin shared ] in
  let block = Cse.eliminate ~min_size:4 [ ("out", e) ] in
  Alcotest.(check int) "threshold respected" 0 (Cse.temp_count block)

let test_cse_single_use_inlined () =
  (* A subtree occurring twice, but only inside one bigger shared tree:
     the small temp collapses into the big one. *)
  let inner = E.add [ x; y ] in
  let big = E.mul [ E.sin inner; E.cos inner ] in
  let e = E.add [ big; E.sqrt big ] in
  let block = Cse.eliminate [ ("out", e) ] in
  (* big is shared (2 uses); inner's uses are inside big's single
     definition, so inner must have been inlined. *)
  Alcotest.(check int) "only the big temp" 2 (Cse.temp_count block)

(* qcheck: CSE preserves semantics on random expressions *)
let expr_gen =
  QCheck.Gen.(
    sized_size (int_bound 8) @@ fix (fun self n ->
        if n <= 0 then oneof [ map E.const (float_range (-2.) 2.); oneofl [ x; y ] ]
        else
          oneof
            [
              map2 (fun a b -> E.add [ a; b ]) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> E.mul [ a; b ]) (self (n / 2)) (self (n / 2));
              map E.sin (self (n - 1));
              map (fun a -> E.powi a 2) (self (n - 1));
            ]))

let arbitrary_exprs =
  QCheck.make
    ~print:(fun es ->
      String.concat "; " (List.map (Fmt.to_to_string E.pp) es))
    QCheck.Gen.(list_size (int_range 1 5) expr_gen)

let prop_cse_preserves_semantics =
  QCheck.Test.make ~name:"CSE inline restores originals" ~count:200
    arbitrary_exprs (fun es ->
      let targets = List.mapi (fun i e -> (Printf.sprintf "t%d" i, e)) es in
      let block = Cse.eliminate targets in
      Cse.verify_no_forward_refs block
      && List.for_all2
           (fun (_, e1) (_, e2) -> E.equal e1 e2)
           targets (Cse.inline block))

let prop_cse_eval_equivalence =
  QCheck.Test.make ~name:"CSE block evaluates like originals" ~count:200
    arbitrary_exprs (fun es ->
      let targets = List.mapi (fun i e -> (Printf.sprintf "t%d" i, e)) es in
      let block = Cse.eliminate targets in
      (* Evaluate the block sequentially with an environment. *)
      let env = Om_expr.Eval.env_of_list [ ("x", 0.7); ("y", -1.3) ] in
      List.iter
        (fun (b : Cse.binding) ->
          Hashtbl.replace env b.name (Om_expr.Eval.eval env b.expr))
        block.temps;
      List.for_all2
        (fun (_, orig) (_, rewritten) ->
          let v1 = Om_expr.Eval.eval env orig in
          let v2 = Om_expr.Eval.eval env rewritten in
          Float.abs (v1 -. v2) <= 1e-9 *. (1. +. Float.abs v1))
        targets block.roots)

(* The counting pass as it was before [Cse.eliminate] kept per-node
   hashes: it re-walks every candidate subtree for its size and hash.
   Slow, but obviously right; the oracle for the one-pass version. *)
module Cse_oracle = struct
  module Smap = Map.Make (String)

  module Etbl = Hashtbl.Make (struct
    type t = E.t

    let equal = E.equal
    let hash = E.hash
  end)

  let extractable e =
    match e with
    | E.Const _ | E.Var _ -> false
    | E.Add _ | E.Mul _ | E.Pow _ | E.Call _ | E.If _ -> true

  let eliminate ?(min_size = 3) ?(min_count = 2) ?(prefix = "cse$") targets =
    let counts = Etbl.create 256 in
    let rec count e =
      if extractable e && E.size e >= min_size then
        Etbl.replace counts e
          (1 + Option.value ~default:0 (Etbl.find_opt counts e));
      List.iter count (E.children e)
    in
    List.iter (fun (_, e) -> count e) targets;
    let shared =
      Etbl.fold (fun e c acc -> if c >= min_count then e :: acc else acc) counts []
      |> List.sort (fun a b ->
             let c = Int.compare (E.size a) (E.size b) in
             if c <> 0 then c else E.compare a b)
    in
    let names = Etbl.create 64 in
    let defs =
      List.mapi
        (fun i e ->
          let name = prefix ^ string_of_int i in
          Etbl.add names e name;
          (name, e))
        shared
    in
    let lookup e = Option.map E.var (Etbl.find_opt names e) in
    let temps =
      List.map
        (fun (name, e) -> { Cse.name; expr = E.map_exact_children lookup e })
        defs
    in
    let roots = List.map (fun (t, e) -> (t, E.map_exact lookup e)) targets in
    let uses = Hashtbl.create 64 in
    let record_uses e =
      ignore
        (E.fold
           (fun () n ->
             match n with
             | E.Var v
               when String.length v >= String.length prefix
                    && String.sub v 0 (String.length prefix) = prefix ->
                 Hashtbl.replace uses v
                   (1 + Option.value ~default:0 (Hashtbl.find_opt uses v))
             | _ -> ())
           () e)
    in
    List.iter (fun (b : Cse.binding) -> record_uses b.expr) temps;
    List.iter (fun (_, e) -> record_uses e) roots;
    let dropped = ref Smap.empty in
    let resolve e =
      E.map_exact (function E.Var v -> Smap.find_opt v !dropped | _ -> None) e
    in
    let kept =
      List.filter_map
        (fun (b : Cse.binding) ->
          let u = Option.value ~default:0 (Hashtbl.find_opt uses b.name) in
          let expr = resolve b.expr in
          if u <= 1 then begin
            dropped := Smap.add b.name expr !dropped;
            None
          end
          else Some { b with expr })
        temps
    in
    let roots = List.map (fun (t, e) -> (t, resolve e)) roots in
    let renaming =
      List.mapi
        (fun i (b : Cse.binding) -> (b.name, E.var (prefix ^ string_of_int i)))
        kept
    in
    let rn e =
      E.map_exact (function E.Var v -> List.assoc_opt v renaming | _ -> None) e
    in
    let temps =
      List.mapi
        (fun i (b : Cse.binding) ->
          { Cse.name = prefix ^ string_of_int i; expr = rn b.expr })
        kept
    in
    { Cse.temps; roots = List.map (fun (t, e) -> (t, rn e)) roots }
end

(* [E.equal], but constants must agree bit for bit, so a temp taken
   from another occurrence with [-0.] for [0.] would show. *)
let rec bit_equal (a : E.t) (b : E.t) =
  match (a, b) with
  | Const x, Const y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Var v, Var w -> String.equal v w
  | _ ->
      E.equal a b
      && List.for_all2 bit_equal (E.children a) (E.children b)

let same_block (a : Cse.block) (b : Cse.block) =
  List.length a.temps = List.length b.temps
  && List.for_all2
       (fun (s : Cse.binding) (t : Cse.binding) ->
         String.equal s.name t.name && bit_equal s.expr t.expr)
       a.temps b.temps
  && List.length a.roots = List.length b.roots
  && List.for_all2
       (fun (s, e) (t, f) -> String.equal s t && bit_equal e f)
       a.roots b.roots

(* Per-task blocks, as the bytecode backend builds them, and one global
   block over every root, as the serial backends do. *)
let cse_matches_oracle (m : Fm.t) =
  let plan = (P.compile m).plan in
  let targets (tk : Part.task) =
    List.map (fun (s, e) -> (Printf.sprintf "slot$%d" s, e)) tk.roots
  in
  let agree ~prefix targets =
    same_block (Cse.eliminate ~prefix targets)
      (Cse_oracle.eliminate ~prefix targets)
  in
  Array.for_all
    (fun (tk : Part.task) ->
      agree ~prefix:(Printf.sprintf "cse$%d$" tk.tid) (targets tk))
    plan.tasks
  && agree ~prefix:"cse$g$"
       (List.concat_map targets (Array.to_list plan.tasks))

let prop_cse_matches_oracle =
  QCheck.Test.make ~name:"one-pass CSE matches the re-walking oracle"
    ~count:100
    QCheck.(make ~print:(Printf.sprintf "model seed %d") Gen.nat)
    (fun seed ->
      cse_matches_oracle
        (Om_lang.Flatten.flatten
           (Om_fuzz.Gen.model (Random.State.make [| seed |]))))

let prop_cse_exprs_match_oracle =
  QCheck.Test.make ~name:"one-pass CSE matches the oracle on small exprs"
    ~count:300 arbitrary_exprs (fun es ->
      let targets = List.mapi (fun i e -> (Printf.sprintf "t%d" i, e)) es in
      same_block (Cse.eliminate targets) (Cse_oracle.eliminate targets)
      && same_block
           (Cse.eliminate ~min_size:1 ~min_count:3 targets)
           (Cse_oracle.eliminate ~min_size:1 ~min_count:3 targets))

(* [0.] and [-0.] are [E.equal], so two such subtrees share one temp; it
   is taken from the last occurrence, as the oracle's table kept it. *)
let test_cse_signed_zero_occurrence () =
  let guarded z =
    E.if_ (E.cond x Lt (E.const z)) (E.mul [ E.sin x; y ]) (E.add [ x; y ])
  in
  let targets =
    [ ("a", E.add [ guarded 0.; y ]); ("b", E.mul [ guarded (-0.); x ]) ]
  in
  let block = Cse.eliminate targets in
  Alcotest.(check bool) "same as the oracle" true
    (same_block block (Cse_oracle.eliminate targets));
  match block.temps with
  | [ { expr = E.If (c, _, _, _); _ } ] ->
      Alcotest.(check bool) "the -0. occurrence" true
        (match c.rhs with E.Const z -> 1. /. z < 0. | _ -> false)
  | _ -> Alcotest.fail "expected one temp for the guarded subtree"

let test_cse_matches_oracle_on_bearing () =
  Alcotest.(check bool) "bearing tasks and global block" true
    (cse_matches_oracle (Om_models.Bearing2d.model ()))

(* ---------- partition ---------- *)

let heavy_expr n =
  (* A sum of n sin terms: cost ~ n * 21. *)
  E.add (List.init n (fun i -> E.sin (E.add [ x; E.int i ])))

let mk_assigns specs =
  Array.of_list
    (List.mapi
       (fun i (name, e) ->
         { A.state = name; target = name ^ "$dot"; state_index = i; rhs = e })
       specs)

let test_partition_grouping () =
  (* Many trivial assignments group into few tasks. *)
  let assigns =
    mk_assigns (List.init 10 (fun i -> (Printf.sprintf "s%d" i, E.neg x)))
  in
  let plan = Part.partition ~merge_threshold:50. ~split_threshold:1e9 assigns in
  Part.validate plan;
  Alcotest.(check bool) "grouped" true (Array.length plan.tasks < 10);
  Alcotest.(check int) "no partials" 0 plan.n_partials

(* A residual with every partial read replaced by the subtree the tasks
   compute into it. *)
let unhoist (plan : Part.plan) residual =
  let hoisted = Hashtbl.create 16 in
  Array.iter
    (fun (t : Part.task) ->
      List.iter
        (fun (slot, e) ->
          if slot >= plan.dim then
            Hashtbl.replace hoisted (Part.partial_name (slot - plan.dim)) e)
        t.roots)
    plan.tasks;
  E.map_exact
    (function E.Var v -> Hashtbl.find_opt hoisted v | _ -> None)
    residual

let test_partition_splitting () =
  (* A cofactor times a sum of 40 terms: the terms are hoisted, the
     cofactor multiplies once, in the residual. *)
  let rhs = E.mul [ E.const 0.5; heavy_expr 40 ] in
  let assigns = mk_assigns [ ("big", rhs) ] in
  let plan = Part.partition ~merge_threshold:10. ~split_threshold:100. assigns in
  Part.validate plan;
  Alcotest.(check int) "a partial per term" 40 plan.n_partials;
  Alcotest.(check bool) "several tasks" true (Array.length plan.tasks >= 2);
  match plan.epilogue with
  | [ (0, residual) ] ->
      (match residual with
      | E.Mul ([ E.Const 0.5; E.Add (reads, _) ], _) ->
          Alcotest.(check (list string))
            "the residual reads the partials in order"
            (List.init 40 Part.partial_name)
            (List.map
               (function E.Var v -> v | _ -> Alcotest.fail "not a read")
               reads)
      | _ -> Alcotest.failf "residual %a" E.pp residual);
      Alcotest.(check bool) "unhoisted, the original tree" true
        (E.equal (unhoist plan residual) rhs);
      Alcotest.(check (float 0.)) "epilogue cost is the residual's"
        (Om_expr.Cost.flops_mean residual) plan.epilogue_flops
  | _ -> Alcotest.fail "one epilogue entry, for derivative 0"

(* Hoisting is exact: with each partial set to its subtree's value, a
   residual evaluates to the bits of the right-hand side it came from,
   in the tree evaluator and in the register VM. *)
let hoist_leaf_gen =
  QCheck.Gen.(
    oneof
      [ map E.const (float_range (-2.) 2.); oneofl [ x; y; E.var "z" ] ])

let hoist_expr_gen =
  QCheck.Gen.(
    sized_size (int_bound 12) @@ fix (fun self n ->
        if n <= 0 then hoist_leaf_gen
        else
          let sub = self (n / 2) in
          let sum = map E.add (list_size (int_range 2 4) sub) in
          frequency
            [
              (1, hoist_leaf_gen);
              (3, sum);
              (2, map2 (fun k s -> E.mul [ k; s ]) sub sum);
              ( 2,
                map3
                  (fun a b s -> E.if_ (E.cond a E.Gt b) s E.zero)
                  sub sub sum );
              (1, map E.sin sub);
              (1, map (fun a -> E.powi a 2) sub);
              (1, map2 E.sub sub sub);
              (1, map2 (fun a b -> E.if_ (E.cond a E.Lt b) a b) sub sub);
            ]))

let prop_hoisting_exact =
  QCheck.Test.make ~name:"residuals evaluate to the original bits" ~count:500
    (QCheck.make
       ~print:(fun (e, frac, (a, b, c)) ->
         Printf.sprintf "%s, threshold %g of its cost, at (%g, %g, %g)"
           (Fmt.to_to_string E.pp e) frac a b c)
       QCheck.Gen.(
         triple hoist_expr_gen (float_range 0.05 0.9)
           (triple (float_range (-3.) 3.) (float_range (-3.) 3.)
              (float_range (-3.) 3.))))
    (fun (e, frac, (a, b, c)) ->
      let plan =
        Part.partition ~merge_threshold:1.
          ~split_threshold:(frac *. Om_expr.Cost.flops_mean e)
          (mk_assigns [ ("s", e) ])
      in
      Part.validate plan;
      match plan.epilogue with
      | [] -> QCheck.assume_fail ()
      | [ (_, residual) ] ->
          let bits = Int64.bits_of_float in
          let hoisted =
            Array.to_list plan.tasks
            |> List.concat_map (fun (t : Part.task) -> t.roots)
            |> List.filter (fun (slot, _) -> slot >= plan.dim)
            |> List.sort compare
            |> List.map snd
          in
          (* Eval: the partials' values, then the residual over them. *)
          let env = Om_expr.Eval.env_of_list [ ("x", a); ("y", b); ("z", c) ] in
          List.iteri
            (fun k h ->
              Hashtbl.replace env (Part.partial_name k)
                (Om_expr.Eval.eval env h))
            hoisted;
          let by_eval =
            bits (Om_expr.Eval.eval env residual)
            = bits (Om_expr.Eval.eval env e)
          in
          (* Vm: the subtrees stored to their slots, then the residual,
             against the unsplit statement. *)
          let n = List.length hoisted in
          let names =
            Array.append [| "x"; "y"; "z" |] (Array.init n Part.partial_name)
          in
          let run stmts =
            let p =
              Om_expr.Vm.compile_stmts ~out_size:1
                (Om_expr.Layout.of_names names) stmts
            in
            let env = Array.make (3 + n) 0. and out = [| 0. |] in
            env.(0) <- a;
            env.(1) <- b;
            env.(2) <- c;
            Om_expr.Vm.exec p ~env ~out;
            bits out.(0)
          in
          let by_vm =
            run
              (List.mapi (fun k h -> (h, Om_expr.Vm.To_env (3 + k))) hoisted
              @ [ (residual, Om_expr.Vm.To_out 0) ])
            = run [ (e, Om_expr.Vm.To_out 0) ]
          in
          by_eval && by_vm
      | _ -> false)

let test_partition_validate_catches () =
  let plan =
    {
      Part.dim = 1;
      rhs = [| E.zero |];
      n_partials = 0;
      tasks = [||];
      epilogue = [];
      epilogue_flops = 0.;
    }
  in
  match Part.validate plan with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "derivative 0 never produced"

let prop_partition_covers_all_derivs =
  QCheck.Test.make ~name:"partition covers every derivative once" ~count:100
    QCheck.(pair (int_range 1 30) (int_range 1 8))
    (fun (n, k) ->
      let assigns =
        mk_assigns
          (List.init n (fun i -> (Printf.sprintf "s%d" i, heavy_expr (1 + (i mod k)))))
      in
      let plan =
        Part.partition ~merge_threshold:30. ~split_threshold:60. assigns
      in
      match Part.validate plan with () -> true | exception _ -> false)

(* ---------- comm analysis ---------- *)

let test_comm_analysis () =
  let m =
    tiny_model
      {|model M; class C variable x; variable y;
        equation der(x) = x; equation der(y) = x + y; end; instance c of C;|}
  in
  let assigns = A.of_flat_model m in
  let plan = Part.partition ~merge_threshold:0.5 ~split_threshold:1e9 assigns in
  let info = Comm.analyse plan ~state_names:(Fm.state_names m) in
  (* Task writing y' reads both states; task writing x' reads only x. *)
  let by_write w =
    let rec find i =
      if i >= Array.length info.writes then Alcotest.fail "missing task"
      else if List.mem w info.writes.(i) then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check (list int)) "x' reads x" [ 0 ] info.reads.(by_write 0);
  Alcotest.(check (list int)) "y' reads x,y" [ 0; 1 ] info.reads.(by_write 1)

let test_read_fraction () =
  let info = { Comm.reads = [| [ 0 ]; [ 0; 1 ] |]; writes = [| [ 0 ]; [ 1 ] |] } in
  Alcotest.(check (float 1e-9)) "fraction" 0.75 (Comm.read_fraction info ~dim:2)

(* ---------- bytecode backend ---------- *)

let compile_model ?(scope = Bc.Cse_per_task) src =
  let m = tiny_model src in
  let assigns = A.of_flat_model m in
  let plan = Part.partition assigns in
  (m, Bc.compile ~scope plan ~state_names:(Fm.state_names m))

let test_bytecode_matches_direct () =
  let m, bc = compile_model oscillator in
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations in
  let y0 = [| 0.3; -0.8 |] in
  let d1 = Om_ode.Odesys.rhs sys 0.5 y0 in
  let d2 = Array.make 2 0. in
  Bc.rhs_fn bc 0.5 y0 d2;
  Alcotest.(check (float 1e-12)) "dx" d1.(0) d2.(0);
  Alcotest.(check (float 1e-12)) "dy" d1.(1) d2.(1)

let test_bytecode_scopes_agree () =
  let src = Om_models.Servo.source () in
  let m = tiny_model src in
  let assigns = A.of_flat_model m in
  let plan = Part.partition assigns in
  let names = Fm.state_names m in
  let y0 = Fm.initial_values m in
  let out scope =
    let bc = Bc.compile ~scope plan ~state_names:names in
    let d = Array.make (Array.length y0) 0. in
    Bc.rhs_fn bc 0.25 y0 d;
    d
  in
  let a = out Bc.Cse_none and b = out Bc.Cse_per_task and c = out Bc.Cse_global in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-10)) (Printf.sprintf "per-task %d" i) v b.(i);
      Alcotest.(check (float 1e-10)) (Printf.sprintf "global %d" i) v c.(i))
    a

let test_bytecode_backends_agree () =
  (* The register-VM RHS on a nontrivial model against the tree-walk
     evaluation of the flat equations (the fuzz oracle's reference), at
     every state of an LSODA run.  The generated code evaluates each
     equation in Eval.eval's order: bit for bit equal, unsplit and with
     the default plan, which splits the bearing's heavy equations by
     hoisting their terms into partials that the residuals read. *)
  let src = Om_models.Bearing2d.source () in
  let m = tiny_model src in
  let assigns = A.of_flat_model m in
  let names = Fm.state_names m in
  let dim = Array.length names in
  let compile plan = Bc.compile plan ~state_names:names in
  let unsplit = compile (Part.partition ~split_threshold:infinity assigns) in
  let split_plan = Part.partition assigns in
  Alcotest.(check bool) "the default plan splits" true
    (split_plan.Part.n_partials > 0);
  let default = compile split_plan in
  let states =
    let sys =
      Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations
    in
    let r =
      Om_ode.Lsoda.integrate sys ~t0:0. ~y0:(Fm.initial_values m) ~tend:0.01
    in
    Array.map2 (fun t y -> (t, y)) r.trajectory.ts r.trajectory.states
  in
  Alcotest.(check bool) "a real trajectory" true (Array.length states > 100);
  let dv_unsplit = Array.make dim 0. and dv_default = Array.make dim 0. in
  Array.iter
    (fun (t, y) ->
      Bc.rhs_fn unsplit t y dv_unsplit;
      Bc.rhs_fn default t y dv_default;
      let env =
        Om_expr.Eval.env_of_list
          (("t", t) :: Array.to_list (Array.mapi (fun i n -> (n, y.(i))) names))
      in
      List.iteri
        (fun i (_, rhs) ->
          let v = Om_expr.Eval.eval env rhs in
          List.iter
            (fun (what, dv) ->
              if Int64.bits_of_float v <> Int64.bits_of_float dv.(i) then
                Alcotest.failf "%s deriv %d at t=%h: %h vs Eval.eval %h" what
                  i t dv.(i) v)
            [ ("unsplit", dv_unsplit); ("default", dv_default) ])
        m.equations)
    states;
  Alcotest.(check bool) "vm instrs counted" true (default.Bc.vm_instrs > 0)

let test_bytecode_measured_eval () =
  let _, bc = compile_model oscillator in
  bc.set_state 0. [| 1.; 2. |];
  let total =
    Array.fold_left (fun acc t -> acc +. t.Bc.measured_eval ()) 0. bc.tasks
  in
  Alcotest.(check bool) "measured cost positive" true (total >= 0.);
  (* Static cost bounds the measured cost for branch-free models. *)
  let static = Array.fold_left (fun acc t -> acc +. t.Bc.static_cost) 0. bc.tasks in
  Alcotest.(check (float 1e-9)) "equal for branch-free" static total

let test_bytecode_conditional_costs_vary () =
  let src =
    {|model M; class C variable x init 1.0;
      equation der(x) = if x > 0.0 then sin(sin(sin(x))) else 0.0 - x; end;
      instance c of C;|}
  in
  let _, bc = compile_model src in
  bc.set_state 0. [| 1. |];
  let expensive = bc.tasks.(0).measured_eval () in
  bc.set_state 0. [| -1. |];
  let cheap = bc.tasks.(0).measured_eval () in
  Alcotest.(check bool) "taken branch matters" true (expensive > cheap)

(* ---------- fortran backend ---------- *)

let gen_fortran mode src =
  let m = tiny_model src in
  let assigns = A.of_flat_model m in
  let plan = Part.partition assigns in
  F.generate ~mode plan ~state_names:(Fm.state_names m)
    ~initial:(Fm.initial_values m) ~model_name:m.name

let test_fortran_parallel_structure () =
  let f = gen_fortran F.Parallel oscillator in
  Alcotest.(check bool) "subroutine RHS" true
    (contains f.code "subroutine RHS(workerid, yin, yout)");
  Alcotest.(check bool) "select case" true
    (contains f.code "select case (workerid)");
  Alcotest.(check bool) "init_state" true (contains f.code "subroutine init_state");
  Alcotest.(check bool) "reader" true
    (contains f.code "subroutine read_start_values");
  Alcotest.(check int) "line count consistent" f.total_lines
    (Om_codegen.Stats.count_lines f.code)

let test_fortran_serial_structure () =
  let f = gen_fortran F.Serial oscillator in
  Alcotest.(check bool) "serial signature" true
    (contains f.code "subroutine RHS(t, yin, yout)");
  Alcotest.(check bool) "no select" false (contains f.code "select case")

let test_fortran_mangling () =
  Alcotest.(check string) "brackets and dots" "W_3__phi" (F.mangle "W[3].phi");
  Alcotest.(check string) "dollar" "cse_0_1" (F.mangle "cse$0$1")

let test_fortran_expressions () =
  let v n = n in
  Alcotest.(check string) "pow" "x**(2)" (F.expr_to_fortran v (E.powi x 2));
  Alcotest.(check string) "literal" "1.5d0" (F.expr_to_fortran v (E.const 1.5));
  Alcotest.(check string) "merge for if" "merge(x, y, x < y)"
    (F.expr_to_fortran v (E.if_ (E.cond x E.Lt y) x y));
  Alcotest.(check bool) "sign helper" true
    (contains (F.expr_to_fortran v (E.sign x)) "omsign")

let test_fortran_decl_share_grows_with_model () =
  let f = gen_fortran F.Parallel (Om_models.Servo.source ()) in
  Alcotest.(check bool) "declarations dominate statements eventually" true
    (f.declaration_lines > 0 && f.declaration_lines < f.total_lines)

let test_fortran_serial_golden () =
  (* Lock the backend's exact output format on the smallest model. *)
  let f = gen_fortran F.Serial oscillator in
  let expected_body =
    [ "  subroutine RHS(t, yin, yout)";
      "    real(dp), intent(in) :: t";
      "    real(dp), intent(in) :: yin(2)";
      "    real(dp), intent(inout) :: yout(2)";
      "    real(dp) :: c__x";
      "    real(dp) :: c__y";
      "    real(dp) :: c__x_dot";
      "    real(dp) :: c__y_dot";
      "    c__x = yin(1)";
      "    c__y = yin(2)";
      "    c__x_dot = c__y";
      "    c__y_dot = -c__x";
      "    yout(1) = c__x_dot";
      "    yout(2) = c__y_dot";
      "  end subroutine RHS" ]
  in
  List.iter
    (fun line ->
      if not (contains f.code (line ^ "\n")) then
        Alcotest.failf "missing line: %s" line)
    expected_body

let test_cse_custom_prefix () =
  let shared = E.add [ x; y ] in
  let block =
    Cse.eliminate ~prefix:"tmp@" [ ("a", E.mul [ shared; E.sin shared ]) ]
  in
  Alcotest.(check int) "one temp" 1 (Cse.temp_count block);
  List.iter
    (fun (b : Cse.binding) ->
      Alcotest.(check bool) "prefix used" true
        (String.length b.name > 4 && String.sub b.name 0 4 = "tmp@"))
    block.temps

let test_fortran_line_width () =
  (* The backend wraps statements at 72 columns like 1995 F90 listings;
     only unbreakable tokens may run longer, and none should approach a
     punch-card-hostile 110. *)
  let f = gen_fortran F.Parallel (Om_models.Bearing2d.source ()) in
  let too_long =
    String.split_on_char '\n' f.code
    |> List.filter (fun l -> String.length l > 110)
  in
  Alcotest.(check (list string)) "no overlong lines" [] too_long;
  let wrapped =
    String.split_on_char '\n' f.code
    |> List.filter (fun l ->
           String.length l >= 2 && String.sub l (String.length l - 2) 2 = " &")
  in
  Alcotest.(check bool) "continuations present" true
    (List.length wrapped > 50)

let prop_partition_chunks_bounded =
  QCheck.Test.make ~name:"split chunks stay near the threshold" ~count:60
    QCheck.(int_range 200 2000)
    (fun threshold ->
      let threshold = float_of_int threshold in
      let m = Om_models.Bearing2d.model ~n_rollers:4 () in
      let assigns = A.of_flat_model m in
      let plan =
        Part.partition ~merge_threshold:20. ~split_threshold:threshold
          assigns
      in
      Part.validate plan;
      (* Every multi-root task containing partials must not wildly exceed
         the chunk target (threshold/2 + one term). *)
      Array.for_all
        (fun (t : Part.task) ->
          List.length t.roots > 0)
        plan.tasks)

(* ---------- c backend ---------- *)

let test_c_structure () =
  let m = tiny_model oscillator in
  let assigns = A.of_flat_model m in
  let plan = Part.partition assigns in
  let c =
    C.generate ~mode:C.Parallel plan ~state_names:(Fm.state_names m)
      ~initial:(Fm.initial_values m) ~model_name:m.name
  in
  Alcotest.(check bool) "switch" true (contains c.code "switch (workerid)");
  Alcotest.(check bool) "math.h" true (contains c.code "#include <math.h>");
  Alcotest.(check bool) "sign helper" true (contains c.code "om_sign")

let test_c_expressions () =
  let v n = n in
  Alcotest.(check string) "small power inlined" "x*x" (C.expr_to_c v (E.powi x 2));
  Alcotest.(check string) "ternary" "(x < y) ? x : y"
    (C.expr_to_c v (E.if_ (E.cond x E.Lt y) x y))

(* ---------- mathematica backend ---------- *)

module Mma = Om_codegen.Mathematica_backend

let test_mathematica_structure () =
  let m = tiny_model oscillator in
  let src = Mma.generate m in
  Alcotest.(check bool) "NDSolve driver" true (contains src.code "NDSolve[");
  Alcotest.(check bool) "equations" true (contains src.code "'[t] ==");
  Alcotest.(check bool) "initial conditions" true (contains src.code "[0] ==");
  Alcotest.(check bool) "line count" true
    (src.total_lines = Om_codegen.Stats.count_lines src.code)

let test_mathematica_functions () =
  let m =
    tiny_model
      {|model M; class C variable x init 1.0;
        equation der(x) = atan2(x, 2.0) + max(x, 0.0) - asin(x / 2.0); end;
        instance c of C;|}
  in
  let src = Mma.generate m in
  Alcotest.(check bool) "arctan2 helper" true (contains src.code "OMArcTan2[");
  Alcotest.(check bool) "Max" true (contains src.code "Max[");
  Alcotest.(check bool) "ArcSin" true (contains src.code "ArcSin[")

let test_mathematica_mangling_collisions () =
  let m =
    tiny_model
      {|model M;
        class A variable b; equation der(b) = b; end;
        class Holder part a : A; end;
        instance a of Holder;
        instance ab of A;|}
  in
  (* States a.a.b and ab.b both strip to "aab"/"abb"?  Construct the real
     collision: a.a.b -> aab; check all mangled names are distinct. *)
  let mg = Mma.mangle m in
  let mangled = List.map (fun (s, _) -> mg s) m.states in
  let sorted = List.sort_uniq compare mangled in
  Alcotest.(check int) "distinct symbols" (List.length mangled)
    (List.length sorted)

let test_mathematica_conditionals () =
  let m =
    tiny_model
      {|model M; class C variable x init 1.0;
        equation der(x) = if x > 0.0 then 0.0 - x else x; end;
        instance c of C;|}
  in
  let src = Mma.generate m in
  Alcotest.(check bool) "If form" true (contains src.code "If[")

(* ---------- pipeline + stats ---------- *)

let test_pipeline_bearing () =
  let m = Om_models.Bearing2d.model () in
  let r = P.compile m in
  Alcotest.(check int) "2 SCCs" 2 r.analysis.comps.count;
  Alcotest.(check int) "one nontrivial" 1 (List.length r.analysis.nontrivial);
  Alcotest.(check bool) "tasks exist" true (Array.length r.tasks > 10)

let test_pipeline_rhs_equivalence () =
  let m = Om_models.Powerplant.model () in
  let r = P.compile m in
  let sys = Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations in
  let y0 = Fm.initial_values m in
  let d1 = Om_ode.Odesys.rhs sys 0.1 y0 in
  let d2 = Array.make (Array.length y0) 0. in
  P.rhs_fn r 0.1 y0 d2;
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-10)) (Printf.sprintf "deriv %d" i) v d2.(i))
    d1

(* ---------- the sequential program ---------- *)

(* One per-task round, as the parallel executor computes it: every
   task's own program in order, then the epilogue. *)
let per_task_rhs (c : Bc.t) t y ydot =
  c.set_state t y;
  Array.iter (fun (tk : Bc.compiled_task) -> tk.eval ()) c.tasks;
  c.run_epilogue ();
  Array.blit c.out 0 ydot 0 c.dim

let check_bits_array what a b =
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s %d: %h vs %h" what i x b.(i))
    a

let check_sequential_rounds name m ~h =
  (* 200 RK4 steps through the sequential program and through the
     per-task rounds, on separate instances of one compile. *)
  let r = P.compile m in
  let seq = P.clone_scratch r in
  let rk4 f =
    let dim = r.compiled.dim in
    let sys = Om_ode.Odesys.make ~dim f in
    Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 sys ~t0:0. ~y0:(Fm.initial_values m)
      ~tend:(200. *. h) ~h
  in
  let a = rk4 (per_task_rhs r.compiled) and b = rk4 (P.rhs_fn seq) in
  Alcotest.(check int) (name ^ ": steps") (Array.length a.ts)
    (Array.length b.ts);
  Alcotest.(check bool) (name ^ ": at least 200 steps") true
    (Array.length a.ts > 200);
  Array.iteri
    (fun k y -> check_bits_array (Printf.sprintf "%s step %d state" name k) y
        b.states.(k))
    a.states

let test_sequential_bearing () =
  check_sequential_rounds "bearing2d" (Om_models.Bearing2d.model ()) ~h:1e-5

let test_sequential_powerplant () =
  check_sequential_rounds "powerplant" (Om_models.Powerplant.model ()) ~h:1e-2

let test_sequential_servo () =
  check_sequential_rounds "servo" (Om_models.Servo.model ()) ~h:1e-3

let test_sequential_heat () =
  check_sequential_rounds "heat-500" (Om_pde.Discretize.heat_1d ~n:500 ())
    ~h:1e-7

let test_merged_smaller () =
  (* Per-task CSE repeats shared subterms in every task; the DAG
     lowering computes each once (6,265 instructions against the
     tasks' and epilogue's 13,299 when this was written). *)
  let r = P.compile (Om_models.Bearing2d.model ()) in
  let per_task =
    Array.fold_left
      (fun n (tk : Bc.compiled_task) -> n + Om_expr.Vm.length tk.program)
      0 r.compiled.tasks
  in
  let merged = Om_expr.Vm.length (r.compiled.sequential ()) in
  if not (10 * merged < 8 * per_task) then
    Alcotest.failf "merged %d instructions, per-task %d" merged per_task

(* ---------- byte-identical programs ---------- *)

(* Digest of a program's code words, constant bits and register count:
   equal digests, the same program.  A compile-time speed-up must keep
   the pinned values; a change to them is a change to what the bearing
   runs.  The trailing [-1] is the result register statement programs
   had when expression programs existed; it keeps the pinned digests. *)
let program_digest p =
  let r = Om_expr.Vm.raw p in
  let b = Buffer.create 65536 in
  Array.iter (fun w -> Buffer.add_string b (Printf.sprintf "%d," w)) r.rw_code;
  Buffer.add_char b '|';
  Array.iter
    (fun x -> Buffer.add_string b (Printf.sprintf "%Ld," (Int64.bits_of_float x)))
    r.rw_consts;
  Buffer.add_string b (Printf.sprintf "|%d|-1" r.rw_nregs);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The RHS and Jacobian programs [Odesys.rhs_program] and
   [Odesys.jacobian_program] build, built the way they build them, on a
   lowering scratch of the caller's choice. *)
let odesys_programs ?optimize ?scratch eqs =
  let module Vm = Om_expr.Vm in
  let names = Array.of_list (List.map fst eqs) in
  let layout = Om_expr.Layout.of_names (Array.append names [| "t" |]) in
  let rhs =
    Vm.compile_stmts ?optimize ?scratch ~out_size:(Array.length names) layout
      (List.mapi (fun i (_, e) -> (e, Vm.To_out i)) eqs)
  in
  let sparsity = Om_ode.Odesys.pattern_of_equations eqs in
  let jac =
    Vm.compile_stmts ?optimize ?scratch
      ~out_size:(Om_ode.Sparse.nnz sparsity) layout
      (Om_ode.Odesys.jacobian_stmts sparsity eqs)
  in
  (rhs, jac)

let check_program what ~instrs ~digest p =
  Alcotest.(check int) (what ^ " instructions") instrs (Om_expr.Vm.length p);
  Alcotest.(check string) (what ^ " digest") digest (program_digest p)

let test_odesys_programs_pinned () =
  let m = Om_models.Bearing2d.model () in
  let rhs, jac = odesys_programs m.equations in
  let front = P.model_of_flat m in
  List.iter
    (fun (what, rhs, jac) ->
      check_program (what ^ " rhs") ~instrs:6265
        ~digest:"e26b85ca9142adcfab2233d9df1f8620" rhs;
      check_program (what ^ " jacobian") ~instrs:18546
        ~digest:"c35b1a782cb4aa582bd65fa92ecf5016" jac)
    [
      ("odesys", rhs, jac);
      ("front", P.rhs_program front, P.jacobian_program front);
    ];
  (* They are the programs Odesys runs: the same outputs, bit for bit. *)
  let sys = Om_ode.Odesys.of_equations m.equations in
  let y0 = Fm.initial_values m in
  let env = Array.append y0 [| 0.25 |] in
  let bits a = Array.map Int64.bits_of_float a in
  let ydot = Array.make (Array.length y0) 0. in
  let out = Array.make (Array.length y0) 0. in
  sys.f 0.25 y0 ydot;
  Om_expr.Vm.exec rhs ~env ~out;
  Alcotest.(check (array int64)) "rhs outputs" (bits out) (bits ydot);
  let nnz = Om_ode.Sparse.nnz (Option.get sys.sparsity) in
  let v = Array.make nnz 0. and out = Array.make nnz 0. in
  (Option.get sys.sjac) 0.25 y0 v;
  Om_expr.Vm.exec jac ~env ~out;
  Alcotest.(check (array int64)) "jacobian outputs" (bits out) (bits v)

(* What the bearing's [Odesys] computes, pinned independently of the
   programs that compute it: the Int64 bits of [f] and [sjac] at five
   states around [y0], perturbed from 1e-6 to 1e-3 so that contact
   conditions go both ways.  A change to how the programs are built
   must leave this digest as it is. *)
let test_odesys_values_pinned () =
  let m = Om_models.Bearing2d.model () in
  let sys = Om_ode.Odesys.of_equations m.equations in
  let y0 = Fm.initial_values m in
  let nnz = Om_ode.Sparse.nnz (Option.get sys.sparsity) in
  let b = Buffer.create 65536 in
  let add_bits a =
    Array.iter
      (fun x -> Buffer.add_string b (Printf.sprintf "%Ld," (Int64.bits_of_float x)))
      a;
    Buffer.add_char b '|'
  in
  List.iteri
    (fun k scale ->
      let y =
        Array.mapi
          (fun i v -> v +. (scale *. float_of_int ((((i * 7) + (k * 13)) mod 11) - 5)))
          y0
      in
      let t = 0.001 *. float_of_int k in
      let ydot = Array.make (Array.length y0) 0. and v = Array.make nnz 0. in
      sys.f t y ydot;
      (Option.get sys.sjac) t y v;
      add_bits ydot;
      add_bits v)
    [ 0.; 1e-6; 1e-5; 1e-4; 1e-3 ];
  Alcotest.(check string)
    "f and sjac bits" "f096ecd773d2eb9554128d79baca567d"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The lowering emits the constant-operand forms itself (54,754 ldc/mul
   instructions down to 39,084), and derives from interned rows with
   arms shared across equal conditions (down to 21,548 when this was
   written). *)
let test_lowered_jacobian_ceiling () =
  let _, jac =
    odesys_programs ~optimize:false (Om_models.Bearing2d.model ()).equations
  in
  let n = Om_expr.Vm.length jac in
  if n > 21_600 then Alcotest.failf "lowered jacobian: %d instructions" n

(* The lowering memo is a hash table whose layout depends on what the
   scratch lowered before; the programs must not.  The bearing's RHS and
   Jacobian lowered with a fresh scratch and with one a larger compile
   already grew give the same programs. *)
let test_jacobian_layout_independent () =
  let eqs = (Om_models.Bearing2d.model ()).equations in
  let rhs, jac = odesys_programs eqs in
  let scratch = Om_expr.Vm.scratch () in
  ignore
    (odesys_programs ~scratch
       (Om_models.Bearing_scaled.model ~n_rollers:20 ()).equations);
  let rhs', jac' = odesys_programs ~scratch eqs in
  Alcotest.(check string)
    "rhs digest" (program_digest rhs) (program_digest rhs');
  Alcotest.(check string)
    "jacobian digest" (program_digest jac) (program_digest jac')

(* The sequential program is the one [Odesys] runs: the same DAG
   lowering of the same right-hand sides, lowered once per compiled
   model — the back end's is the front's, physically. *)
let test_pipeline_programs_pinned () =
  let m = Om_models.Bearing2d.model () in
  let front = P.model_of_flat m in
  let r = P.result front in
  let rhs, _ = odesys_programs m.equations in
  let seq = r.compiled.sequential () in
  check_program "sequential" ~instrs:(Om_expr.Vm.length rhs)
    ~digest:(program_digest rhs) seq;
  Alcotest.(check bool) "the front's program" true (seq == P.rhs_program front);
  check_program "task 24" ~instrs:566
    ~digest:"cfad424fdb0df64172eb2f5146a4487a" r.compiled.tasks.(24).program

(* Every program the compiler builds for seven models, digested: each
   model's per-task programs, its sequential RHS program and its
   Jacobian program.  One digest of those digests is pinned, read from
   a build before expression nodes carried their hash; a change to how
   programs are built (a memo's keys, its hash, its table sizes) must
   leave every program byte for byte as it is. *)
let test_all_programs_pinned () =
  let models =
    [
      ("bearing2d", Om_models.Bearing2d.model ());
      ("powerplant", Om_models.Powerplant.model ());
      ("servo", Om_models.Servo.model ());
      ("bearing_scaled-20", Om_models.Bearing_scaled.model ~n_rollers:20 ());
      ("bearing_scaled-40", Om_models.Bearing_scaled.model ~n_rollers:40 ());
      ("heat-500", Om_pde.Discretize.heat_1d ~n:502 ());
      ("heat-2000", Om_pde.Discretize.heat_1d ~n:2002 ());
    ]
  in
  let digests =
    List.map
      (fun (name, m) ->
        let front = P.model_of_flat m in
        let r = P.result front in
        let tasks =
          Array.to_list r.compiled.tasks
          |> List.map (fun (tk : Bc.compiled_task) -> program_digest tk.program)
        in
        String.concat ","
          ((name :: tasks)
          @ [
              program_digest (P.rhs_program front);
              program_digest (P.jacobian_program front);
            ]))
      models
  in
  Alcotest.(check string)
    "digest of every program" "97d765b4fce30815260a04f6b6e4b31b"
    (Digest.to_hex (Digest.string (String.concat "\n" digests)))

let test_merged_zero_alloc () =
  let r = P.compile (Om_models.Bearing2d.model ()) in
  let y = Fm.initial_values r.model in
  let ydot = Array.make r.compiled.dim 0. in
  let words n =
    P.rhs_fn r 0. y ydot;
    let before = Gc.minor_words () in
    for _ = 1 to n do
      P.rhs_fn r 0. y ydot
    done;
    Gc.minor_words () -. before
  in
  let d1 = words 20 in
  let d2 = words 220 in
  Alcotest.(check (float 0.)) "zero words per call" 0. (d2 -. d1)

(* [vac] is read by the [sqr] of the first equation and by the
   condition of the second, across the jump boundary.  When the
   sequential program merged the task programs, it loaded [vac] once
   for both, and Vm_batch's load fusion, which counted readers only up
   to that boundary, fused the load into the [sqr] and left the
   condition reading a stale row.  The DAG lowering loads [vac] once
   per equation. *)
let shared_load_source =
  {|model SharedLoad;
    class C
      alias qaa = 1.0;
      variable vab init 0.5;
      variable vac init 2.0;
      variable vbb init 0.25;
      equation der(vab) = vac ^ 2.0;
      equation der(vac) = if vac >= qaa then 0.75 else vab;
      equation der(vbb) = vab;
    end
    instance rba of C;|}

let vac_slot (c : Bc.t) =
  let rec find i = if c.state_names.(i) = "rba.vac" then i else find (i + 1) in
  find 0

let test_merged_batch_shared_load () =
  let r = P.compile (tiny_model shared_load_source) in
  let c = r.compiled in
  let p = c.sequential () in
  let scalar = Om_expr.Vm.clone_scratch p in
  let batch = Om_expr.Vm_batch.create p ~width:1 in
  let env_size = (Om_expr.Vm.raw p).rw_env_size in
  List.iter
    (fun vac ->
      let env = Array.make env_size 0. in
      Array.blit (Fm.initial_values r.model) 0 env 0 c.dim;
      env.(vac_slot c) <- vac;
      let out = Array.make c.dim 0. in
      Om_expr.Vm.exec scalar ~env ~out;
      let benv = Array.map (fun v -> [| v |]) env in
      let bout = Array.init c.dim (fun _ -> [| nan |]) in
      Om_expr.Vm_batch.exec batch ~env:benv ~out:bout ~lo:0 ~hi:1;
      check_bits_array
        (Printf.sprintf "vac=%g: batch vs scalar out" vac)
        out
        (Array.map (fun col -> col.(0)) bout))
    [ 2.0; 0.5; 1.0 ]

let test_merged_batch_lanes () =
  (* Lanes on both sides of the branch through Batch_backend, each
     against the scalar rhs_fn. *)
  let r = P.compile (tiny_model shared_load_source) in
  let c = r.compiled in
  let width = 4 in
  let bb = Om_codegen.Batch_backend.create c ~width in
  let vacs = [| 2.0; 0.5; 1.0; -3.0 |] in
  let y =
    Array.init c.dim (fun i ->
        Array.init width (fun j ->
            if i = vac_slot c then vacs.(j) else 0.5 +. float i))
  in
  let times = Array.make width 0. in
  let ydot = Array.init c.dim (fun _ -> Array.make width 0.) in
  Om_codegen.Batch_backend.brhs bb ~times ~y ~ydot ~lo:0 ~hi:width;
  let d = Array.make c.dim 0. in
  for j = 0 to width - 1 do
    Bc.rhs_fn c 0. (Array.init c.dim (fun i -> y.(i).(j))) d;
    check_bits_array
      (Printf.sprintf "lane %d" j)
      d
      (Array.init c.dim (fun i -> ydot.(i).(j)))
  done

let test_stats_directions () =
  (* The paper's qualitative relations: intermediate form larger than
     source; parallel CSE count >= serial CSE count; serial code smaller
     than parallel code. *)
  let src = Om_models.Bearing2d.source () in
  let r = P.compile (Om_lang.Flatten.flatten_string src) in
  let s = Stats.collect ~source:src r in
  Alcotest.(check bool) "intermediate >> source" true
    (s.intermediate_lines > 5 * Option.get s.source_lines);
  Alcotest.(check bool) "cse parallel >= serial" true
    (s.cse_parallel >= s.cse_serial);
  Alcotest.(check bool) "serial smaller" true
    (s.fortran_serial_lines < s.fortran_parallel_lines)

let test_system_level_speedup () =
  let m = Om_models.Powerplant.model () in
  let a = P.analyse m in
  let sp = P.system_level_speedup a ~comm:0. ~nprocs:8 in
  Alcotest.(check bool) "plant partitions" true (sp > 1.5);
  let m2 = Om_models.Bearing2d.model () in
  let a2 = P.analyse m2 in
  let sp2 = P.system_level_speedup a2 ~comm:0. ~nprocs:8 in
  (* One giant SCC: no useful system-level parallelism. *)
  Alcotest.(check bool) "bearing does not" true (sp2 < 1.1)

(* ---------- generated jacobian ---------- *)

module Jg = Om_codegen.Jacobian_gen

let test_jacobian_sparsity () =
  let m = tiny_model oscillator in
  let jg = Jg.generate m in
  Alcotest.(check int) "two nonzeros" 2 (Jg.nonzero_count jg);
  Alcotest.(check (float 1e-9)) "density" 0.5 (Jg.density jg);
  let coords = List.map (fun (r, c, _) -> (r, c)) jg.entries in
  Alcotest.(check bool) "dx'/dy" true (List.mem (0, 1) coords);
  Alcotest.(check bool) "dy'/dx" true (List.mem (1, 0) coords)

let test_jacobian_values () =
  (* The executable symbolic Jacobian overwrites a dirty matrix,
     structural zeros included. *)
  let m = tiny_model oscillator in
  let f = Option.get (Om_ode.Odesys.of_equations m.equations).jac in
  let mat = Om_ode.Linalg.make 2 2 99. in
  f 0.3 [| 0.5; -0.25 |] mat;
  Alcotest.(check (float 1e-12)) "j00 zeroed" 0. mat.(0).(0);
  Alcotest.(check (float 1e-12)) "j01" 1. mat.(0).(1);
  Alcotest.(check (float 1e-12)) "j10" (-1.) mat.(1).(0)

let test_jacobian_matches_numeric () =
  (* On the smooth servo model the symbolic Jacobian must agree with
     finite differences everywhere. *)
  let m = Om_models.Servo.model () in
  let sys_gen = Om_ode.Odesys.of_equations m.equations in
  let sys_num =
    Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations
  in
  let y = Array.map (fun (_, v) -> v +. 0.1) (Array.of_list m.states) in
  let ja = Om_ode.Jacobian.analytic sys_gen 0.2 y in
  let jn = Om_ode.Jacobian.numeric sys_num 0.2 y in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          let d = Float.abs (v -. jn.(i).(j)) /. (1. +. Float.abs v) in
          if d > 1e-4 then
            Alcotest.failf "entry (%d,%d): %g vs %g" i j v jn.(i).(j))
        row)
    ja

let test_jacobian_speeds_up_bdf () =
  let m = Om_models.Servo.model () in
  let sys_gen = Om_ode.Odesys.of_equations m.equations in
  let sys_num =
    Om_ode.Odesys.of_equations ~with_symbolic_jacobian:false m.equations
  in
  let y0 = Fm.initial_values m in
  let run sys =
    Om_ode.Odesys.reset_counters sys;
    ignore (Om_ode.Bdf.integrate ~order:2 sys ~t0:0. ~y0 ~tend:0.05 ~h:1e-3);
    sys.Om_ode.Odesys.counters.rhs_calls
  in
  let gen_calls = run sys_gen and num_calls = run sys_num in
  Alcotest.(check bool) "drastically fewer RHS calls" true
    (gen_calls * 5 < num_calls)

let test_jacobian_fortran () =
  let m = tiny_model oscillator in
  let jg = Jg.generate m in
  let f = Jg.fortran jg ~state_names:(Fm.state_names m) ~model_name:m.name in
  Alcotest.(check bool) "subroutine JAC" true
    (contains f.code "subroutine JAC(t, yin, pd)");
  Alcotest.(check bool) "zero fill" true (contains f.code "pd = 0.0d0");
  Alcotest.(check bool) "entry" true (contains f.code "pd(1,2)")

let test_jacobian_cse_shares_work () =
  (* Equations with a common heavy factor: its partials share temps. *)
  let m =
    tiny_model
      {|model M; class C variable x; variable y;
        alias heavy = sin(x * y) * exp(x + y);
        equation der(x) = heavy * x; equation der(y) = heavy * y; end;
        instance c of C;|}
  in
  let jg = Jg.generate m in
  Alcotest.(check bool) "temps extracted" true
    (Om_codegen.Cse.temp_count jg.block > 0);
  Alcotest.(check int) "dense 2x2" 4 (Jg.nonzero_count jg)

(* ---------- diagnostics ---------- *)

module Diag = Om_codegen.Diagnostics

let test_diagnostics_bearing () =
  let m = Om_models.Bearing2d.model () in
  let r = Diag.analyse m in
  (* The driven rotation influences nothing and depends on nothing. *)
  Alcotest.(check (list string)) "isolated" [ "Inner.theta" ] r.isolated;
  Alcotest.(check bool) "one giant SCC" true (r.largest_scc_share > 0.95)

let test_diagnostics_servo () =
  let m = Om_models.Servo.model () in
  let r = Diag.analyse m in
  (* Sensors observe; nothing reads them back. *)
  Alcotest.(check bool) "sensors are observers" true
    (List.mem "S[1].sensor.Value" r.sinks
    && List.mem "S[2].sensor.Value" r.sinks);
  Alcotest.(check bool) "small SCC share" true (r.largest_scc_share < 0.5)

let () =
  let q = Qcheck_seed.to_alcotest in
  Alcotest.run "om_codegen"
    [
      ("assignments", [ Alcotest.test_case "basic" `Quick test_assignments ]);
      ( "cse",
        [
          Alcotest.test_case "extracts shared" `Quick test_cse_extracts_shared;
          Alcotest.test_case "no sharing" `Quick test_cse_no_sharing_no_temp;
          Alcotest.test_case "across targets" `Quick test_cse_across_targets;
          Alcotest.test_case "inline roundtrip" `Quick test_cse_inline_roundtrip;
          Alcotest.test_case "min size" `Quick test_cse_min_size_threshold;
          Alcotest.test_case "single-use inlined" `Quick
            test_cse_single_use_inlined;
          Alcotest.test_case "custom prefix" `Quick test_cse_custom_prefix;
          q prop_cse_preserves_semantics;
          q prop_cse_eval_equivalence;
          q prop_cse_matches_oracle;
          q prop_cse_exprs_match_oracle;
          Alcotest.test_case "matches the oracle on the bearing" `Quick
            test_cse_matches_oracle_on_bearing;
          Alcotest.test_case "signed zero occurrence" `Quick
            test_cse_signed_zero_occurrence;
        ] );
      ( "partition",
        [
          Alcotest.test_case "grouping" `Quick test_partition_grouping;
          Alcotest.test_case "splitting" `Quick test_partition_splitting;
          Alcotest.test_case "validation" `Quick test_partition_validate_catches;
          q prop_partition_covers_all_derivs;
          q prop_partition_chunks_bounded;
        ] );
      ("hoisting", [ q prop_hoisting_exact ]);
      ( "comm",
        [
          Alcotest.test_case "reads and writes" `Quick test_comm_analysis;
          Alcotest.test_case "read fraction" `Quick test_read_fraction;
        ] );
      ( "bytecode",
        [
          Alcotest.test_case "matches direct eval" `Quick
            test_bytecode_matches_direct;
          Alcotest.test_case "scopes agree" `Quick test_bytecode_scopes_agree;
          Alcotest.test_case "backends agree" `Quick
            test_bytecode_backends_agree;
          Alcotest.test_case "measured eval" `Quick test_bytecode_measured_eval;
          Alcotest.test_case "conditional costs" `Quick
            test_bytecode_conditional_costs_vary;
        ] );
      ( "fortran",
        [
          Alcotest.test_case "parallel structure" `Quick
            test_fortran_parallel_structure;
          Alcotest.test_case "serial structure" `Quick
            test_fortran_serial_structure;
          Alcotest.test_case "mangling" `Quick test_fortran_mangling;
          Alcotest.test_case "expressions" `Quick test_fortran_expressions;
          Alcotest.test_case "declarations" `Quick
            test_fortran_decl_share_grows_with_model;
          Alcotest.test_case "serial golden" `Quick test_fortran_serial_golden;
          Alcotest.test_case "line width" `Quick test_fortran_line_width;
        ] );
      ( "c",
        [
          Alcotest.test_case "structure" `Quick test_c_structure;
          Alcotest.test_case "expressions" `Quick test_c_expressions;
        ] );
      ( "jacobian",
        [
          Alcotest.test_case "sparsity" `Quick test_jacobian_sparsity;
          Alcotest.test_case "values" `Quick test_jacobian_values;
          Alcotest.test_case "matches numeric" `Quick
            test_jacobian_matches_numeric;
          Alcotest.test_case "speeds up BDF" `Quick
            test_jacobian_speeds_up_bdf;
          Alcotest.test_case "fortran output" `Quick test_jacobian_fortran;
          Alcotest.test_case "CSE shares work" `Quick
            test_jacobian_cse_shares_work;
        ] );
      ( "mathematica",
        [
          Alcotest.test_case "structure" `Quick test_mathematica_structure;
          Alcotest.test_case "function names" `Quick
            test_mathematica_functions;
          Alcotest.test_case "mangling collisions" `Quick
            test_mathematica_mangling_collisions;
          Alcotest.test_case "conditionals" `Quick
            test_mathematica_conditionals;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "bearing" `Quick test_diagnostics_bearing;
          Alcotest.test_case "servo" `Quick test_diagnostics_servo;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "bearing analysis" `Quick test_pipeline_bearing;
          Alcotest.test_case "rhs equivalence" `Quick
            test_pipeline_rhs_equivalence;
          Alcotest.test_case "stats directions" `Quick test_stats_directions;
          Alcotest.test_case "system-level speedup" `Quick
            test_system_level_speedup;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "bearing equals per-task rounds" `Quick
            test_sequential_bearing;
          Alcotest.test_case "powerplant equals per-task rounds" `Quick
            test_sequential_powerplant;
          Alcotest.test_case "servo equals per-task rounds" `Quick
            test_sequential_servo;
          Alcotest.test_case "heat equals per-task rounds" `Quick
            test_sequential_heat;
        ] );
      ( "merged",
        [
          Alcotest.test_case "fewer instructions" `Quick test_merged_smaller;
          Alcotest.test_case "zero allocation" `Quick test_merged_zero_alloc;
          Alcotest.test_case "batch shared load" `Quick
            test_merged_batch_shared_load;
          Alcotest.test_case "batch lanes" `Quick test_merged_batch_lanes;
        ] );
      ( "programs",
        [
          Alcotest.test_case "odesys rhs and jacobian pinned" `Quick
            test_odesys_programs_pinned;
          Alcotest.test_case "odesys f and sjac values pinned" `Quick
            test_odesys_values_pinned;
          Alcotest.test_case "lowered jacobian ceiling" `Quick
            test_lowered_jacobian_ceiling;
          Alcotest.test_case "jacobian independent of memo layout" `Quick
            test_jacobian_layout_independent;
          Alcotest.test_case "merged and task programs pinned" `Quick
            test_pipeline_programs_pinned;
          Alcotest.test_case "every program of seven models pinned" `Quick
            test_all_programs_pinned;
        ] );
    ]
