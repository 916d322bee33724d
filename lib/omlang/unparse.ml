module E = Om_expr.Expr

(* Precedence: 0 if, 1 additive, 2 multiplicative, 3 unary minus,
   4 power, 5 atom. *)
let rec sexpr_prec prec (e : Ast.sexpr) =
  let paren p s = if prec > p then "(" ^ s ^ ")" else s in
  match e with
  | Snum x ->
      let s =
        if Float.is_integer x && Float.abs x < 1e15 then
          Printf.sprintf "%.1f" x
        else Printf.sprintf "%.17g" x
      in
      if x < 0. then paren 2 s else s
  | Sname n -> name n
  | Sbin (op, a, b) -> (
      match op with
      | Badd -> paren 1 (sexpr_prec 1 a ^ " + " ^ sexpr_prec 2 b)
      | Bsub -> paren 1 (sexpr_prec 1 a ^ " - " ^ sexpr_prec 2 b)
      | Bmul -> paren 2 (sexpr_prec 2 a ^ " * " ^ sexpr_prec 3 b)
      | Bdiv -> paren 2 (sexpr_prec 2 a ^ " / " ^ sexpr_prec 3 b)
      | Bpow -> paren 4 (sexpr_prec 5 a ^ " ^ " ^ sexpr_prec 3 b))
  | Sneg a -> paren 3 ("-" ^ sexpr_prec 3 a)
  | Scall (f, args) ->
      f ^ "(" ^ String.concat ", " (List.map (sexpr_prec 0) args) ^ ")"
  | Sif (c, t, e') ->
      paren 0
        (Printf.sprintf "if %s %s %s then %s else %s" (sexpr_prec 1 c.sc_lhs)
           (E.rel_name c.sc_rel) (sexpr_prec 1 c.sc_rhs) (sexpr_prec 0 t)
           (sexpr_prec 0 e'))

and name ({ segments } : Ast.name) =
  String.concat "."
    (List.map
       (fun ({ base; index } : Ast.segment) ->
         match index with
         | None -> base
         | Some ix -> Printf.sprintf "%s[%s]" base (sexpr_prec 0 ix))
       segments)

let sexpr = sexpr_prec 0

let bindings = function
  | [] -> ""
  | bs ->
      " with "
      ^ String.concat ", "
          (List.map (fun (k, e) -> Printf.sprintf "%s = %s" k (sexpr e)) bs)

let member (m : Ast.member) =
  match m with
  | Parameter (n, e) -> Printf.sprintf "  parameter %s = %s;" n (sexpr e)
  | Variable (n, e) -> Printf.sprintf "  variable %s init %s;" n (sexpr e)
  | Alias (n, e) -> Printf.sprintf "  alias %s = %s;" n (sexpr e)
  | Part (n, cls, bs) -> Printf.sprintf "  part %s : %s%s;" n cls (bindings bs)
  | Equation (n, e) -> Printf.sprintf "  equation der(%s) = %s;" n (sexpr e)

let class_def (c : Ast.class_def) =
  let header =
    match c.parent with
    | None -> Printf.sprintf "class %s" c.cname
    | Some (p, bs) -> Printf.sprintf "class %s extends %s%s" c.cname p (bindings bs)
  in
  String.concat "\n"
    ((header :: List.map member c.members) @ [ "end;" ])

let instance_def (i : Ast.instance_def) =
  match i.range with
  | None -> Printf.sprintf "instance %s of %s%s;" i.iname i.icls (bindings i.ibindings)
  | Some (lo, hi) ->
      Printf.sprintf "instance %s[%d..%d] of %s%s;" i.iname lo hi i.icls
        (bindings i.ibindings)

let model (m : Ast.model) =
  String.concat "\n\n"
    ((Printf.sprintf "model %s;" m.mname)
     :: (List.map class_def m.classes @ List.map instance_def m.instances))
  ^ "\n"

(* ---- flat model back to source ---- *)

let flat_name s =
  String.map (fun c -> match c with '.' | '[' | ']' | ',' -> '_' | c -> c) s

(* Expressions of a flat model contain only state variables and t. *)
let rec flat_expr (e : E.t) : Ast.sexpr =
  match e with
  | E.Const x -> Snum x
  | E.Var "t" -> Sname (Ast.name_of_string "time")
  | E.Var v -> Sname (Ast.name_of_string (flat_name v))
  | E.Add (t :: ts, _) ->
      List.fold_left (fun acc u -> Ast.Sbin (Badd, acc, flat_expr u)) (flat_expr t) ts
  | E.Add ([], _) -> Snum 0.
  | E.Mul (f :: fs, _) ->
      List.fold_left (fun acc u -> Ast.Sbin (Bmul, acc, flat_expr u)) (flat_expr f) fs
  | E.Mul ([], _) -> Snum 1.
  | E.Pow (b, ex, _) -> Sbin (Bpow, flat_expr b, flat_expr ex)
  | E.Call (f, args, _) -> Scall (E.func_name f, List.map flat_expr args)
  | E.If (c, t, e', _) ->
      Sif
        ( { sc_lhs = flat_expr c.lhs; sc_rel = c.rel; sc_rhs = flat_expr c.rhs },
          flat_expr t, flat_expr e' )

let flat_model (fm : Flat_model.t) =
  let members =
    List.map
      (fun (s, v) -> Ast.Variable (flat_name s, Snum v))
      fm.states
    @ List.map
        (fun (s, rhs) -> Ast.Equation (flat_name s, flat_expr rhs))
        fm.equations
  in
  model
    {
      mname = fm.name;
      classes =
        [ { cname = "Flat"; parent = None; members; cpos = { line = 0; col = 0 } } ];
      instances =
        [ { iname = "m"; range = None; icls = "Flat"; ibindings = [];
            ipos = { line = 0; col = 0 } } ];
    }
