module E = Om_expr.Expr

type source = {
  code : string;
  total_lines : int;
  declaration_lines : int;
  statement_lines : int;
  cse_count : int;
}

type mode = Parallel | Serial

let mangle s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '.' -> Buffer.add_string buf "__"
      | '[' -> Buffer.add_char buf '_'
      | ']' -> ()
      | '$' -> Buffer.add_char buf '_'
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_literal x =
  let s = Printf.sprintf "%.17g" x in
  if String.contains s 'e' then
    String.map (fun c -> if c = 'e' then 'd' else c) s
  else if String.contains s '.' then s ^ "d0"
  else s ^ ".0d0"

let fortran_func : E.func -> string = function
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
  | Sign -> "omsign"
  | Atan2 -> "atan2"
  | Min -> "min"
  | Max -> "max"
  | Hypot -> "omhypot"

(* Precedence: 1 sum, 2 product, 3 unary minus, 4 power, 5 atom. *)
let expr_to_fortran var_name e =
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
            emit 4 (E.mul rest))
    | E.Mul (factors, _) ->
        paren 2 (fun () ->
            List.iteri
              (fun i f ->
                if i > 0 then Buffer.add_char buf '*';
                emit 4 f)
              factors)
    | E.Pow (b, E.Const n, _) when Float.is_integer n && Float.abs n < 1e9 ->
        paren 4 (fun () ->
            emit 5 b;
            Buffer.add_string buf
              (Printf.sprintf "**(%d)" (int_of_float n)))
    | E.Pow (b, ex, _) ->
        paren 4 (fun () ->
            emit 5 b;
            Buffer.add_string buf "**(";
            emit 1 ex;
            Buffer.add_char buf ')')
    | E.Call (f, args, _) ->
        Buffer.add_string buf (fortran_func f);
        Buffer.add_char buf '(';
        List.iteri
          (fun i a ->
            if i > 0 then Buffer.add_string buf ", ";
            emit 1 a)
          args;
        Buffer.add_char buf ')'
    | E.If (c, t, e', _) ->
        (* merge(tsource, fsource, mask) evaluates eagerly, which is fine
           for generated expression code. *)
        Buffer.add_string buf "merge(";
        emit 1 t;
        Buffer.add_string buf ", ";
        emit 1 e';
        Buffer.add_string buf ", ";
        emit 1 c.lhs;
        Buffer.add_string buf
          (match c.rel with
          | E.Lt -> " < "
          | E.Le -> " <= "
          | E.Gt -> " > "
          | E.Ge -> " >= ");
        emit 1 c.rhs;
        Buffer.add_char buf ')'
  in
  emit 0 e;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

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

(* Fortran 90 free-form lines are wrapped at 72 columns with a trailing
   '&'; each physical line counts toward the totals, the way the paper's
   10 913-line figure counts its generated code. *)
let wrap_width = 72

let stmt em s =
  let indent =
    let rec spaces i = if i < String.length s && s.[i] = ' ' then spaces (i + 1) else i in
    String.make (min (spaces 0 + 4) 20) ' '
  in
  (* Continuation lines carry a leading '&' so that even mid-token cuts
     are legal free-form Fortran (trailing '&' + leading '&'). *)
  let cont_prefix = indent ^ "&" in
  let rec emit_chunk text first =
    let prefix = if first then "" else cont_prefix in
    if String.length prefix + String.length text <= wrap_width then
      line em (prefix ^ text)
    else begin
      let budget = wrap_width - String.length prefix - 2 in
      (* Prefer cutting at a space before the limit; otherwise cut hard
         inside the token (legal thanks to the leading '&'). *)
      let cut = ref (min budget (String.length text - 1)) in
      while !cut > 0 && text.[!cut] <> ' ' do
        decr cut
      done;
      let at, skip = if !cut > 0 then (!cut, 1) else (budget, 0) in
      let head = String.sub text 0 at in
      let tail = String.sub text (at + skip) (String.length text - at - skip) in
      line em (prefix ^ head ^ " &");
      emit_chunk tail false
    end
  in
  emit_chunk s true;
  em.n_stmts <- em.n_stmts + 1

let slot_name dim state_names slot =
  if slot < dim then mangle state_names.(slot) ^ "_dot"
  else Printf.sprintf "partial_%d" (slot - dim)

(* How the gather epilogue names a residual's variables: a state or the
   time as an element of [yin], a partial as one of [yout]; [elem array
   i] renders element [i], counting from 0. *)
let gather_names (plan : Partition.plan) ~state_names elem =
  let partials = Array.init plan.n_partials Partition.partial_name in
  let names = Array.concat [ state_names; [| "t" |]; partials ] in
  let layout = Om_expr.Layout.of_names names in
  fun v ->
    let i = Om_expr.Layout.slot layout v in
    if i <= plan.dim then elem "yin" i else elem "yout" (i - 1)

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
               let block =
                 Cse.eliminate ~prefix:(Printf.sprintf "cse$%d$" tk.tid)
                   targets
               in
               (tk, block))
    | Serial ->
        let all_roots =
          Array.to_list plan.tasks
          |> List.concat_map (fun (tk : Partition.task) ->
                 List.map
                   (fun (s, e) -> (slot_name dim state_names s, e))
                   tk.roots)
        in
        let block = Cse.eliminate ~prefix:"cse$g$" all_roots in
        let merged : Partition.task =
          { tid = 0; label = "serial"; roots = [] }
        in
        [ (merged, block) ]
  in
  let cse_count =
    List.fold_left (fun acc (_, b) -> acc + Cse.temp_count b) 0 blocks
  in
  let var_name v = mangle v in
  let em = emitter () in
  line em ("! Generated Fortran 90 RHS code for model " ^ model_name);
  line em "! ObjectMath reproduction code generator";
  line em "module rhs_mod";
  line em "  implicit none";
  line em "  integer, parameter :: dp = kind(1.0d0)";
  line em "contains";
  line em "";
  (* The RHS subroutine. *)
  (match mode with
  | Parallel ->
      line em "  subroutine RHS(workerid, yin, yout)";
      line em "    integer, intent(in) :: workerid";
      line em (Printf.sprintf "    real(dp), intent(in) :: yin(%d)" (dim + 1));
      line em
        (Printf.sprintf "    real(dp), intent(inout) :: yout(%d)"
           (Partition.n_slots plan))
  | Serial ->
      line em "  subroutine RHS(t, yin, yout)";
      line em "    real(dp), intent(in) :: t";
      line em (Printf.sprintf "    real(dp), intent(in) :: yin(%d)" dim);
      line em (Printf.sprintf "    real(dp), intent(inout) :: yout(%d)" dim));
  (* Declarations: every local used anywhere in the body, one per line —
     this is what makes 43% of the generated lines in the paper. *)
  let declared = Hashtbl.create 256 in
  let declare n =
    if not (Hashtbl.mem declared n) then begin
      Hashtbl.add declared n ();
      decl em (Printf.sprintf "    real(dp) :: %s" n)
    end
  in
  (match mode with
  | Parallel -> declare "t"
  | Serial -> ());
  List.iter
    (fun ((tk : Partition.task), (block : Cse.block)) ->
      List.iter (fun i -> declare (mangle state_names.(i))) info.reads.(tk.tid);
      List.iter (fun (b : Cse.binding) -> declare (mangle b.name)) block.temps;
      List.iter (fun (target, _) -> declare (mangle target)) block.roots)
    blocks;
  (match mode with
  | Serial ->
      (* Serial code also evaluates the residuals. *)
      List.iter
        (fun (deriv, _) -> declare (slot_name dim state_names deriv))
        plan.epilogue
  | Parallel -> ());
  let emit_block indent (tk : Partition.task) (block : Cse.block) =
    (* Loads. *)
    List.iter
      (fun i ->
        stmt em
          (Printf.sprintf "%s%s = yin(%d)" indent
             (mangle state_names.(i))
             (i + 1)))
      info.reads.(tk.tid);
    (match mode with
    | Parallel -> stmt em (Printf.sprintf "%st = yin(%d)" indent (dim + 1))
    | Serial -> ());
    (* Temporaries. *)
    List.iter
      (fun (b : Cse.binding) ->
        stmt em
          (Printf.sprintf "%s%s = %s" indent (mangle b.name)
             (expr_to_fortran var_name b.expr)))
      block.temps;
    (* Outputs. *)
    List.iter
      (fun (target, e) ->
        stmt em
          (Printf.sprintf "%s%s = %s" indent (mangle target)
             (expr_to_fortran var_name e)))
      block.roots;
    List.iter
      (fun (slot, _) ->
        stmt em
          (Printf.sprintf "%syout(%d) = %s" indent (slot + 1)
             (slot_name dim state_names slot)))
      tk.roots
  in
  (match mode with
  | Parallel ->
      line em "    select case (workerid)";
      List.iter
        (fun ((tk : Partition.task), block) ->
          line em (Printf.sprintf "    case (%d)" (tk.tid + 1));
          emit_block "      " tk block)
        blocks;
      line em "    end select"
  | Serial -> (
      match blocks with
      | [ (_, block) ] ->
          (* Loads for every state. *)
          Array.iteri
            (fun i n ->
              stmt em (Printf.sprintf "    %s = yin(%d)" (mangle n) (i + 1)))
            state_names;
          List.iter
            (fun (b : Cse.binding) ->
              stmt em
                (Printf.sprintf "    %s = %s" (mangle b.name)
                   (expr_to_fortran var_name b.expr)))
            block.temps;
          List.iter
            (fun (target, e) ->
              stmt em
                (Printf.sprintf "    %s = %s" (mangle target)
                   (expr_to_fortran var_name e)))
            block.roots;
          (* Epilogue: the residuals read the partials, then store. *)
          List.iter
            (fun (deriv, e) ->
              stmt em
                (Printf.sprintf "    %s = %s"
                   (slot_name dim state_names deriv)
                   (expr_to_fortran var_name e)))
            plan.epilogue;
          Array.iteri
            (fun i n ->
              ignore n;
              stmt em
                (Printf.sprintf "    yout(%d) = %s" (i + 1)
                   (slot_name dim state_names i)))
            state_names
      | _ -> assert false));
  line em "  end subroutine RHS";
  line em "";
  (match mode with
  | Parallel ->
      (* Supervisor-side gather epilogue: the residuals, over the state
         and the gathered partials. *)
      line em "  subroutine gather_epilogue(yin, yout)";
      line em (Printf.sprintf "    real(dp), intent(in) :: yin(%d)" (dim + 1));
      line em
        (Printf.sprintf "    real(dp), intent(inout) :: yout(%d)"
           (Partition.n_slots plan));
      let gathered =
        gather_names plan ~state_names (fun a i ->
            Printf.sprintf "%s(%d)" a (i + 1))
      in
      List.iter
        (fun (deriv, e) ->
          stmt em
            (Printf.sprintf "    yout(%d) = %s" (deriv + 1)
               (expr_to_fortran gathered e)))
        plan.epilogue;
      line em "  end subroutine gather_epilogue";
      line em ""
  | Serial -> ());
  (* Start values (§3.2: generated so the model's variable names are
     usable, plus a reader so runs need no recompilation). *)
  line em "  subroutine init_state(y)";
  line em (Printf.sprintf "    real(dp), intent(out) :: y(%d)" dim);
  Array.iteri
    (fun i x ->
      stmt em (Printf.sprintf "    y(%d) = %s" (i + 1) (float_literal x)))
    initial;
  line em "  end subroutine init_state";
  line em "";
  line em "  subroutine read_start_values(unitno, y)";
  line em "    integer, intent(in) :: unitno";
  line em (Printf.sprintf "    real(dp), intent(out) :: y(%d)" dim);
  line em "    integer :: i";
  line em (Printf.sprintf "    do i = 1, %d" dim);
  line em "      read(unitno, *) y(i)";
  line em "    end do";
  line em "  end subroutine read_start_values";
  line em "";
  line em "  pure function omsign(x) result(s)";
  line em "    real(dp), intent(in) :: x";
  line em "    real(dp) :: s";
  line em "    if (x > 0.0d0) then";
  line em "      s = 1.0d0";
  line em "    else if (x < 0.0d0) then";
  line em "      s = -1.0d0";
  line em "    else";
  line em "      s = 0.0d0";
  line em "    end if";
  line em "  end function omsign";
  line em "";
  line em "  pure function omhypot(x, y) result(h)";
  line em "    real(dp), intent(in) :: x, y";
  line em "    real(dp) :: h";
  line em "    h = sqrt(x*x + y*y)";
  line em "  end function omhypot";
  line em "end module rhs_mod";
  {
    code = Buffer.contents em.lines;
    total_lines = em.n_lines;
    declaration_lines = em.n_decls;
    statement_lines = em.n_stmts;
    cse_count;
  }
