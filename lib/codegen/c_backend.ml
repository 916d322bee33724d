module E = Om_expr.Expr

type source = {
  code : string;
  total_lines : int;
  declaration_lines : int;
  statement_lines : int;
  cse_count : int;
}

type mode = Parallel | Serial

let c_func : E.func -> string = function
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
  | Abs -> "fabs"
  | Sign -> "om_sign"
  | Atan2 -> "atan2"
  | Min -> "fmin"
  | Max -> "fmax"
  | Hypot -> "hypot"

let float_literal x = Printf.sprintf "%.17g" x

(* Precedence: 1 sum, 2 product, 3 unary minus, 5 atom.  Powers lower to
   pow() or repeated multiplication at integer exponents. *)
let expr_to_c var_name e =
  let buf = Buffer.create 128 in
  let rec emit prec e =
    let paren p f =
      if prec > p then begin
        Buffer.add_char buf '(';
        f ();
        Buffer.add_char buf ')'
      end
      else f ()
    in
    match e with
    | E.Const x ->
        if x < 0. then paren 2 (fun () -> Buffer.add_string buf (float_literal x))
        else Buffer.add_string buf (float_literal x)
    | E.Var v -> Buffer.add_string buf (var_name v)
    | E.Add (terms, _) ->
        paren 1 (fun () ->
            List.iteri
              (fun i t ->
                if i > 0 then Buffer.add_string buf " + ";
                emit 2 t)
              terms)
    | E.Mul (E.Const (-1.) :: rest, _) when rest <> [] ->
        paren 3 (fun () ->
            Buffer.add_char buf '-';
            emit 5 (E.mul rest))
    | E.Mul (factors, _) ->
        paren 2 (fun () ->
            List.iteri
              (fun i f ->
                if i > 0 then Buffer.add_char buf '*';
                emit 5 f)
              factors)
    | E.Pow (b, E.Const n, _)
      when Float.is_integer n && n >= 2. && n <= 4. ->
        (* Small integer powers as explicit products. *)
        paren 2 (fun () ->
            let k = int_of_float n in
            for i = 0 to k - 1 do
              if i > 0 then Buffer.add_char buf '*';
              emit 5 b
            done)
    | E.Pow (b, E.Const (-1.), _) ->
        paren 2 (fun () ->
            Buffer.add_string buf "1.0/";
            emit 5 b)
    | E.Pow (b, ex, _) ->
        Buffer.add_string buf "pow(";
        emit 1 b;
        Buffer.add_string buf ", ";
        emit 1 ex;
        Buffer.add_char buf ')'
    | E.Call (f, args, _) ->
        Buffer.add_string buf (c_func f);
        Buffer.add_char buf '(';
        List.iteri
          (fun i a ->
            if i > 0 then Buffer.add_string buf ", ";
            emit 1 a)
          args;
        Buffer.add_char buf ')'
    | E.If (c, t, e', _) ->
        paren 1 (fun () ->
            Buffer.add_char buf '(';
            emit 1 c.lhs;
            Buffer.add_string buf
              (match c.rel with
              | E.Lt -> " < "
              | E.Le -> " <= "
              | E.Gt -> " > "
              | E.Ge -> " >= ");
            emit 1 c.rhs;
            Buffer.add_string buf ") ? ";
            emit 2 t;
            Buffer.add_string buf " : ";
            emit 2 e')
  in
  emit 0 e;
  Buffer.contents buf

let mangle = Fortran.mangle

let slot_name dim state_names slot =
  if slot < dim then mangle state_names.(slot) ^ "_dot"
  else Printf.sprintf "partial_%d" (slot - dim)

type emitter = {
  lines : Buffer.t;
  mutable n_lines : int;
  mutable n_decls : int;
  mutable n_stmts : int;
}

let emitter () =
  { lines = Buffer.create 4096; n_lines = 0; n_decls = 0; n_stmts = 0 }

let line em s =
  Buffer.add_string em.lines s;
  Buffer.add_char em.lines '\n';
  em.n_lines <- em.n_lines + 1

let decl em s =
  line em s;
  em.n_decls <- em.n_decls + 1

let stmt em s =
  line em s;
  em.n_stmts <- em.n_stmts + 1

let generate ~mode (plan : Partition.plan) ~state_names ~initial ~model_name =
  let dim = plan.dim in
  let info = Comm_analysis.analyse plan ~state_names in
  let blocks =
    match mode with
    | Parallel ->
        Array.to_list plan.tasks
        |> List.map (fun (tk : Partition.task) ->
               let targets =
                 List.map
                   (fun (s, e) -> (slot_name dim state_names s, e))
                   tk.roots
               in
               ( tk,
                 Cse.eliminate ~prefix:(Printf.sprintf "cse$%d$" tk.tid)
                   targets ))
    | Serial ->
        let all_roots =
          Array.to_list plan.tasks
          |> List.concat_map (fun (tk : Partition.task) ->
                 List.map
                   (fun (s, e) -> (slot_name dim state_names s, e))
                   tk.roots)
        in
        let merged : Partition.task =
          { tid = 0; label = "serial"; roots = [] }
        in
        [ (merged, Cse.eliminate ~prefix:"cse$g$" all_roots) ]
  in
  let cse_count =
    List.fold_left (fun acc (_, b) -> acc + Cse.temp_count b) 0 blocks
  in
  let var_name = mangle in
  let em = emitter () in
  line em ("/* Generated C RHS code for model " ^ model_name ^ " */");
  line em "#include <math.h>";
  line em "";
  line em "static double om_sign(double x)";
  line em "{ return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); }";
  line em "";
  (match mode with
  | Parallel ->
      line em
        (Printf.sprintf
           "void rhs(int workerid, const double yin[%d], double yout[%d])"
           (dim + 1)
           (Partition.n_slots plan))
  | Serial ->
      line em
        (Printf.sprintf
           "void rhs(double t, const double yin[%d], double yout[%d])" dim
           dim));
  line em "{";
  let emit_block indent (tk : Partition.task) (block : Cse.block) =
    List.iter
      (fun i ->
        decl em
          (Printf.sprintf "%sconst double %s = yin[%d];" indent
             (mangle state_names.(i))
             i))
      info.reads.(tk.tid);
    (match mode with
    | Parallel ->
        decl em (Printf.sprintf "%sconst double t = yin[%d];" indent dim)
    | Serial -> ());
    List.iter
      (fun (b : Cse.binding) ->
        stmt em
          (Printf.sprintf "%sconst double %s = %s;" indent (mangle b.name)
             (expr_to_c var_name b.expr)))
      block.temps;
    List.iter
      (fun (target, e) ->
        stmt em
          (Printf.sprintf "%sconst double %s = %s;" indent (mangle target)
             (expr_to_c var_name e)))
      block.roots;
    List.iter
      (fun (slot, _) ->
        stmt em
          (Printf.sprintf "%syout[%d] = %s;" indent slot
             (slot_name dim state_names slot)))
      tk.roots
  in
  (match mode with
  | Parallel ->
      line em "  switch (workerid) {";
      List.iter
        (fun (tk, block) ->
          line em (Printf.sprintf "  case %d: {" tk.Partition.tid);
          emit_block "    " tk block;
          line em "    break;";
          line em "  }")
        blocks;
      line em "  }"
  | Serial -> (
      match blocks with
      | [ (_, block) ] ->
          Array.iteri
            (fun i n ->
              decl em
                (Printf.sprintf "  const double %s = yin[%d];" (mangle n) i))
            state_names;
          line em "  (void)t;";
          List.iter
            (fun (b : Cse.binding) ->
              stmt em
                (Printf.sprintf "  const double %s = %s;" (mangle b.name)
                   (expr_to_c var_name b.expr)))
            block.temps;
          List.iter
            (fun (target, e) ->
              stmt em
                (Printf.sprintf "  const double %s = %s;" (mangle target)
                   (expr_to_c var_name e)))
            block.roots;
          List.iter
            (fun (deriv, e) ->
              stmt em
                (Printf.sprintf "  const double %s = %s;"
                   (slot_name dim state_names deriv)
                   (expr_to_c var_name e)))
            plan.epilogue;
          Array.iteri
            (fun i _ ->
              stmt em
                (Printf.sprintf "  yout[%d] = %s;" i
                   (slot_name dim state_names i)))
            state_names
      | _ -> assert false));
  line em "}";
  line em "";
  (match mode with
  | Parallel ->
      line em
        (Printf.sprintf
           "void gather_epilogue(const double yin[%d], double yout[%d])"
           (dim + 1)
           (Partition.n_slots plan));
      line em "{";
      let gathered =
        Fortran.gather_names plan ~state_names (Printf.sprintf "%s[%d]")
      in
      List.iter
        (fun (deriv, e) ->
          stmt em
            (Printf.sprintf "  yout[%d] = %s;" deriv (expr_to_c gathered e)))
        plan.epilogue;
      line em "}";
      line em ""
  | Serial -> ());
  line em (Printf.sprintf "void init_state(double y[%d])" dim);
  line em "{";
  Array.iteri
    (fun i x -> stmt em (Printf.sprintf "  y[%d] = %s;" i (float_literal x)))
    initial;
  line em "}";
  {
    code = Buffer.contents em.lines;
    total_lines = em.n_lines;
    declaration_lines = em.n_decls;
    statement_lines = em.n_stmts;
    cse_count;
  }
