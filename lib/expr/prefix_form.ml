let head_of_func f = String.capitalize_ascii (Expr.func_name f)

let head_of_rel : Expr.rel -> string = function
  | Lt -> "Less"
  | Le -> "LessEqual"
  | Gt -> "Greater"
  | Ge -> "GreaterEqual"

let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    string_of_int (int_of_float x)
  else Printf.sprintf "%.17g" x

let rec render ~annotate buf (e : Expr.t) =
  let head h args =
    Buffer.add_string buf h;
    Buffer.add_char buf '[';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        render ~annotate buf a)
      args;
    Buffer.add_char buf ']'
  in
  match e with
  | Const x -> Buffer.add_string buf (number_to_string x)
  | Var v ->
      if annotate then (
        Buffer.add_string buf "om$Type[";
        Buffer.add_string buf v;
        Buffer.add_string buf ", om$Real]")
      else Buffer.add_string buf v
  | Add (xs, _) -> head "Plus" xs
  | Mul (xs, _) -> head "Times" xs
  | Pow (a, b, _) -> head "Power" [ a; b ]
  | Call (f, args, _) -> head (head_of_func f) args
  | If (c, t, e', _) ->
      Buffer.add_string buf "If[";
      Buffer.add_string buf (head_of_rel c.rel);
      Buffer.add_char buf '[';
      render ~annotate buf c.lhs;
      Buffer.add_string buf ", ";
      render ~annotate buf c.rhs;
      Buffer.add_string buf "], ";
      render ~annotate buf t;
      Buffer.add_string buf ", ";
      render ~annotate buf e';
      Buffer.add_char buf ']'

let to_string ?(annotate = false) e =
  let buf = Buffer.create 256 in
  render ~annotate buf e;
  Buffer.contents buf

let to_lines ?(annotate = false) ?(width = 72) e =
  let s = to_string ~annotate e in
  (* Break after ", " separators once a line exceeds [width], indenting
     continuations by the current bracket depth. *)
  let lines = ref [] in
  let line = Buffer.create width in
  let depth = ref 0 in
  let flush_line () =
    lines := Buffer.contents line :: !lines;
    Buffer.clear line;
    Buffer.add_string line (String.make (min (2 * !depth) 40) ' ')
  in
  String.iteri
    (fun i c ->
      (match c with
      | '[' -> incr depth
      | ']' -> decr depth
      | _ -> ());
      Buffer.add_char line c;
      if
        c = ' '
        && i > 0
        && s.[i - 1] = ','
        && Buffer.length line >= width
      then flush_line ())
    s;
  if Buffer.length line > 0 then lines := Buffer.contents line :: !lines;
  List.rev !lines

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

type token = Ident of string | Number of float | Lbrack | Rbrack | Comma

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '$' || c = '_'
  in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\n' || c = '\t' then incr i
    else if c = '[' then (
      toks := Lbrack :: !toks;
      incr i)
    else if c = ']' then (
      toks := Rbrack :: !toks;
      incr i)
    else if c = ',' then (
      toks := Comma :: !toks;
      incr i)
    else if (c >= '0' && c <= '9') || c = '-' || c = '.' then (
      let j = ref !i in
      incr j;
      while
        !j < n
        && (let d = s.[!j] in
            (d >= '0' && d <= '9')
            || d = '.' || d = 'e' || d = 'E'
            || ((d = '-' || d = '+') && (s.[!j - 1] = 'e' || s.[!j - 1] = 'E')))
      do
        incr j
      done;
      let text = String.sub s !i (!j - !i) in
      (match float_of_string_opt text with
      | Some x -> toks := Number x :: !toks
      | None -> failwith ("Prefix_form.of_string: bad number " ^ text));
      i := !j)
    else if is_ident_char c then (
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      toks := Ident (String.sub s !i (!j - !i)) :: !toks;
      i := !j)
    else failwith (Printf.sprintf "Prefix_form.of_string: bad character %c" c)
  done;
  List.rev !toks

(* Parsed values: a relation ([Less[a, b]]) is only legal as the first
   argument of [If], so the parser distinguishes the two cases. *)
type value = Vexpr of Expr.t | Vrel of Expr.cond

let of_string s =
  let toks = ref (tokenize s) in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let next () =
    match !toks with
    | [] -> failwith "Prefix_form.of_string: unexpected end"
    | t :: rest ->
        toks := rest;
        t
  in
  let expect t =
    if next () <> t then failwith "Prefix_form.of_string: syntax error"
  in
  let as_expr = function
    | Vexpr e -> e
    | Vrel _ -> failwith "Prefix_form.of_string: relation outside If"
  in
  let rec value () =
    match next () with
    | Number x -> Vexpr (Expr.const x)
    | Ident name -> (
        match peek () with
        | Some Lbrack ->
            expect Lbrack;
            let args = args_until_rbrack () in
            apply name args
        | _ -> Vexpr (Expr.var name))
    | Lbrack | Rbrack | Comma ->
        failwith "Prefix_form.of_string: syntax error"
  and args_until_rbrack () =
    match peek () with
    | Some Rbrack ->
        expect Rbrack;
        []
    | _ ->
        let a = value () in
        let rec more acc =
          match next () with
          | Comma -> more (value () :: acc)
          | Rbrack -> List.rev acc
          | Lbrack | Ident _ | Number _ ->
              failwith "Prefix_form.of_string: expected , or ]"
        in
        more [ a ]
  and apply name args =
    let rel r =
      match args with
      | [ a; b ] -> Vrel (Expr.cond (as_expr a) r (as_expr b))
      | _ -> failwith "Prefix_form.of_string: relation arity"
    in
    match name with
    | "Plus" -> Vexpr (Expr.add (List.map as_expr args))
    | "Times" -> Vexpr (Expr.mul (List.map as_expr args))
    | "Power" -> (
        match args with
        | [ a; b ] -> Vexpr (Expr.pow (as_expr a) (as_expr b))
        | _ -> failwith "Prefix_form.of_string: Power arity")
    | "Minus" -> (
        match args with
        | [ a ] -> Vexpr (Expr.neg (as_expr a))
        | _ -> failwith "Prefix_form.of_string: Minus arity")
    | "om$Type" -> (
        match args with
        | [ v; _ty ] -> Vexpr (as_expr v)
        | _ -> failwith "Prefix_form.of_string: om$Type arity")
    | "Less" -> rel Expr.Lt
    | "LessEqual" -> rel Expr.Le
    | "Greater" -> rel Expr.Gt
    | "GreaterEqual" -> rel Expr.Ge
    | "If" -> (
        match args with
        | [ Vrel c; t; e ] -> Vexpr (Expr.if_ c (as_expr t) (as_expr e))
        | _ -> failwith "Prefix_form.of_string: malformed If")
    | _ -> (
        match Expr.func_of_name (String.lowercase_ascii name) with
        | Some f -> Vexpr (Expr.call f (List.map as_expr args))
        | None ->
            failwith
              (Printf.sprintf
                 "Prefix_form.of_string: unknown head %s applied to %d args"
                 name (List.length args)))
  in
  let e = as_expr (value ()) in
  if !toks <> [] then failwith "Prefix_form.of_string: trailing input";
  e
