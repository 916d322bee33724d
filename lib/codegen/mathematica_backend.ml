module E = Om_expr.Expr

type source = { code : string; total_lines : int }

let mathematica_func : E.func -> string = function
  | Sin -> "Sin"
  | Cos -> "Cos"
  | Tan -> "Tan"
  | Asin -> "ArcSin"
  | Acos -> "ArcCos"
  | Atan -> "ArcTan"
  | Sinh -> "Sinh"
  | Cosh -> "Cosh"
  | Tanh -> "Tanh"
  | Exp -> "Exp"
  | Log -> "Log"
  | Sqrt -> "Sqrt"
  | Abs -> "Abs"
  | Sign -> "Sign"
  | Atan2 -> "OMArcTan2"  (* ArcTan[x, y] flips the argument order *)
  | Min -> "Min"
  | Max -> "Max"
  | Hypot -> "OMHypot"

let float_literal x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%d" (int_of_float x)
  else
    (* Mathematica uses *^ for exponents. *)
    let s = Printf.sprintf "%.17g" x in
    String.concat "*^" (String.split_on_char 'e' s)

(* Precedence: 1 additive, 2 multiplicative, 3 unary minus, 4 power,
   5 atom. *)
let expr_to_mathematica var_name e =
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
    | E.Pow (b, ex, _) ->
        paren 4 (fun () ->
            emit 5 b;
            Buffer.add_char buf '^';
            emit 5 ex)
    | E.Call (f, args, _) ->
        Buffer.add_string buf (mathematica_func f);
        Buffer.add_char buf '[';
        List.iteri
          (fun i a ->
            if i > 0 then Buffer.add_string buf ", ";
            emit 1 a)
          args;
        Buffer.add_char buf ']'
    | E.If (c, t, e', _) ->
        Buffer.add_string buf "If[";
        emit 1 c.lhs;
        Buffer.add_string buf
          (match c.rel with
          | E.Lt -> " < "
          | E.Le -> " <= "
          | E.Gt -> " > "
          | E.Ge -> " >= ");
        emit 1 c.rhs;
        Buffer.add_string buf ", ";
        emit 1 t;
        Buffer.add_string buf ", ";
        emit 1 e';
        Buffer.add_char buf ']'
  in
  emit 0 e;
  Buffer.contents buf

let mangle (fm : Om_lang.Flat_model.t) =
  (* Strip non-alphanumeric characters; resolve collisions with numeric
     suffixes, deterministically in state order. *)
  let table = Hashtbl.create 64 in
  let used = Hashtbl.create 64 in
  let base s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        then Buffer.add_char b c)
      s;
    let r = Buffer.contents b in
    if r = "" then "v" else r
  in
  List.iter
    (fun (s, _) ->
      let candidate = base s in
      let final =
        if not (Hashtbl.mem used candidate) then candidate
        else begin
          let k = ref 2 in
          while Hashtbl.mem used (Printf.sprintf "%s%d" candidate !k) do
            incr k
          done;
          Printf.sprintf "%s%d" candidate !k
        end
      in
      Hashtbl.add used final ();
      Hashtbl.add table s final)
    fm.states;
  fun s ->
    match Hashtbl.find_opt table s with
    | Some m -> m
    | None -> base s

let generate (fm : Om_lang.Flat_model.t) =
  let mg = mangle fm in
  let var_name v = if v = "t" then "t" else mg v ^ "[t]" in
  let buf = Buffer.create 4096 in
  let n = ref 0 in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n';
    incr n
  in
  line ("(* Generated Mathematica code for model " ^ fm.name ^ " *)");
  line "";
  line "OMArcTan2[y_, x_] := ArcTan[x, y];";
  line "OMHypot[x_, y_] := Sqrt[x^2 + y^2];";
  line "";
  line "OMStates = {";
  let states = List.map fst fm.states in
  List.iteri
    (fun i s ->
      line
        (Printf.sprintf "  %s[t]%s" (mg s)
           (if i < List.length states - 1 then "," else "")))
    states;
  line "};";
  line "";
  line "OMEquations = {";
  List.iteri
    (fun i (s, rhs) ->
      line
        (Printf.sprintf "  %s'[t] == %s%s" (mg s)
           (expr_to_mathematica var_name rhs)
           (if i < List.length fm.equations - 1 then "," else "")))
    fm.equations;
  line "};";
  line "";
  line "OMInitial = {";
  List.iteri
    (fun i (s, v) ->
      line
        (Printf.sprintf "  %s[0] == %s%s" (mg s) (float_literal v)
           (if i < List.length fm.states - 1 then "," else "")))
    fm.states;
  line "};";
  line "";
  line "OMSolve[tend_] :=";
  line "  NDSolve[Join[OMEquations, OMInitial], OMStates, {t, 0, tend},";
  line "    Method -> Automatic]";
  { code = Buffer.contents buf; total_lines = !n }
