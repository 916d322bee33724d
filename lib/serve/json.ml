type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail pos msg = raise (Error (Printf.sprintf "at %d: %s" pos msg))

(* ---- parsing ---- *)

type state = { s : string; mutable i : int }

let peek st = if st.i < String.length st.s then Some st.s.[st.i] else None

let skip_ws st =
  while
    st.i < String.length st.s
    && match st.s.[st.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.i <- st.i + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.i <- st.i + 1
  | _ -> fail st.i (Printf.sprintf "expected %c" c)

let literal st word value =
  let n = String.length word in
  if st.i + n <= String.length st.s && String.sub st.s st.i n = word then begin
    st.i <- st.i + n;
    value
  end
  else fail st.i (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.i >= String.length st.s then fail st.i "unterminated string";
    let c = st.s.[st.i] in
    st.i <- st.i + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if st.i >= String.length st.s then fail st.i "unterminated escape";
        let e = st.s.[st.i] in
        st.i <- st.i + 1;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            if st.i + 4 > String.length st.s then fail st.i "short \\u escape";
            let hex = String.sub st.s st.i 4 in
            st.i <- st.i + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail st.i "bad \\u escape"
            in
            (* Encode the code point as UTF-8 (BMP only; surrogate pairs
               are passed through as two 3-byte sequences, which is
               enough for a machine protocol that never re-encodes). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf
                (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
        | _ -> fail st.i "bad escape");
        go ())
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let parse_number st =
  let start = st.i in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.i < String.length st.s && is_num_char st.s.[st.i] do
    st.i <- st.i + 1
  done;
  let text = String.sub st.s start (st.i - start) in
  match int_of_string_opt text with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt text with
      | Some f -> Num f
      | None -> fail start (Printf.sprintf "bad number %s" text))

(* Arrays and objects nest at most this deep: the parser recurses once
   per level, so an unbounded nesting (one hostile line of a million
   ['['s) would overflow the stack instead of failing with [Error]. *)
let max_depth = 512

let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | None -> fail st.i "unexpected end of input"
  | Some ('{' | '[') when depth >= max_depth ->
      fail st.i (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      expect st '{';
      skip_ws st;
      if peek st = Some '}' then (expect st '}'; Obj [])
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' -> expect st ','; go ()
          | Some '}' -> expect st '}'
          | _ -> fail st.i "expected , or }"
        in
        go ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      expect st '[';
      skip_ws st;
      if peek st = Some ']' then (expect st ']'; Arr [])
      else begin
        let items = ref [] in
        let rec go () =
          let v = parse_value st (depth + 1) in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' -> expect st ','; go ()
          | Some ']' -> expect st ']'
          | _ -> fail st.i "expected , or ]"
        in
        go ();
        Arr (List.rev !items)
      end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.i (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let st = { s; i = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  if st.i <> String.length s then fail st.i "trailing garbage";
  v

(* ---- printing ---- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_str f =
  (* Non-finite values have no JSON rendering: emit null, as the bench
     JSON writers already do. *)
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else begin
    (* Shortest rendering that round-trips, so equal computations emit
       equal bytes. *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  end

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Num f -> Buffer.add_string buf (float_str f)
  | Str s -> escape buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* ---- accessors ---- *)

let member v k =
  match v with Obj fields -> List.assoc_opt k fields | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_float = function
  | Int n -> Some (float_of_int n)
  | Num f -> Some f
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None
