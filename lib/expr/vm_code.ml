(* Shared instruction-set definition for the register VM.

   Code is a flat [int array] with a fixed stride of {!stride} words per
   instruction: [op; dst; a; b; c].  The meaning of the operand fields
   depends on the opcode (register index, environment slot, constant-pool
   index, primitive id or jump target).  Keeping the encoding in its own
   module lets the lowering compiler ({!Vm}) and the optimiser
   ({!Peephole}) agree without a dependency cycle. *)

let stride = 5

(* Opcodes.  [dst]/[a]/[b] are register indices unless noted. *)
let op_ldc = 0 (* dst <- consts.(c) *)
let op_ldv = 1 (* dst <- env.(a) *)
let op_mov = 2 (* dst <- regs.(a) *)
let op_add = 3 (* dst <- regs.(a) +. regs.(b) *)
let op_sub = 4 (* dst <- regs.(a) -. regs.(b) *)
let op_mul = 5 (* dst <- regs.(a) *. regs.(b) *)
let op_neg = 6 (* dst <- -. regs.(a) *)
let op_sqr = 7 (* dst <- regs.(a) *. regs.(a) *)
let op_recip = 8 (* dst <- 1. /. regs.(a) *)
let op_pow = 9 (* dst <- regs.(a) ** regs.(b) *)
let op_fma = 10 (* dst <- regs.(a) *. regs.(b) +. regs.(c) *)
let op_addk = 11 (* dst <- regs.(a) +. consts.(c) *)
let op_mulk = 12 (* dst <- regs.(a) *. consts.(c) *)
let op_call1 = 13 (* dst <- prim1[c] regs.(a) *)
let op_call2 = 14 (* dst <- prim2[c] regs.(a) regs.(b) *)
let op_vmul = 15 (* dst <- env.(a) *. env.(b) *)
let op_vmacc = 16 (* dst <- regs.(a) +. env.(b) *. env.(c) *)
let op_jmp = 17 (* pc <- c *)
let op_jnot = 18 (* unless rel[dst] regs.(a) regs.(b): pc <- c *)
let op_ste = 19 (* env.(c) <- regs.(a) *)
let op_sto = 20 (* out.(c) <- regs.(a) *)
let n_opcodes = 21

(* Primitive ids for op_call1/op_call2.  The split mirrors
   {!Expr.func_arity}. *)
let prim1_funcs : Expr.func array =
  [|
    Sin; Cos; Tan; Asin; Acos; Atan; Sinh; Cosh; Tanh; Exp; Log; Sqrt; Abs;
    Sign;
  |]

let prim2_funcs : Expr.func array = [| Atan2; Min; Max; Hypot |]

let find_prim table f =
  let rec go i =
    if i >= Array.length table then invalid_arg "Vm_code: unknown primitive"
    else if table.(i) = f then i
    else go (i + 1)
  in
  go 0

let prim1_of_func f = find_prim prim1_funcs f
let prim2_of_func f = find_prim prim2_funcs f
let prim1_count = Array.length prim1_funcs
let prim2_count = Array.length prim2_funcs
let func_of_prim1 i = prim1_funcs.(i)
let func_of_prim2 i = prim2_funcs.(i)

let rel_id : Expr.rel -> int = function Lt -> 0 | Le -> 1 | Gt -> 2 | Ge -> 3
let rel_of_id = function
  | 0 -> Expr.Lt
  | 1 -> Expr.Le
  | 2 -> Expr.Gt
  | 3 -> Expr.Ge
  | _ -> invalid_arg "Vm_code.rel_of_id"

(* A decoded instruction, for inspection, disassembly and tests.  The
   interpreter never builds these. *)
type instr =
  | Ldc of int * float
  | Ldv of int * int
  | Mov of int * int
  | Add of int * int * int
  | Sub of int * int * int
  | Mul of int * int * int
  | Neg of int * int
  | Sqr of int * int
  | Recip of int * int
  | Powr of int * int * int
  | Fma of int * int * int * int
  | Addk of int * int * float
  | Mulk of int * int * float
  | Call1 of int * Expr.func * int
  | Call2 of int * Expr.func * int * int
  | Vmul of int * int * int
  | Vmacc of int * int * int * int
  | Jmp of int
  | Jnot of Expr.rel * int * int * int
  | Ste of int * int
  | Sto of int * int

let decode_at code consts pos =
  let op = code.(pos)
  and dst = code.(pos + 1)
  and a = code.(pos + 2)
  and b = code.(pos + 3)
  and c = code.(pos + 4) in
  if op = op_ldc then Ldc (dst, consts.(c))
  else if op = op_ldv then Ldv (dst, a)
  else if op = op_mov then Mov (dst, a)
  else if op = op_add then Add (dst, a, b)
  else if op = op_sub then Sub (dst, a, b)
  else if op = op_mul then Mul (dst, a, b)
  else if op = op_neg then Neg (dst, a)
  else if op = op_sqr then Sqr (dst, a)
  else if op = op_recip then Recip (dst, a)
  else if op = op_pow then Powr (dst, a, b)
  else if op = op_fma then Fma (dst, a, b, c)
  else if op = op_addk then Addk (dst, a, consts.(c))
  else if op = op_mulk then Mulk (dst, a, consts.(c))
  else if op = op_call1 then Call1 (dst, func_of_prim1 c, a)
  else if op = op_call2 then Call2 (dst, func_of_prim2 c, a, b)
  else if op = op_vmul then Vmul (dst, a, b)
  else if op = op_vmacc then Vmacc (dst, a, b, c)
  else if op = op_jmp then Jmp c
  else if op = op_jnot then Jnot (rel_of_id dst, a, b, c)
  else if op = op_ste then Ste (c, a)
  else if op = op_sto then Sto (c, a)
  else invalid_arg "Vm_code.decode_at: bad opcode"

let decode code consts =
  Array.init (Array.length code / stride) (fun i ->
      decode_at code consts (i * stride))

let pp_instr ppf i =
  let g = Printf.sprintf "%g" in
  let s =
    match i with
    | Ldc (d, x) -> Printf.sprintf "ldc   r%d, %s" d (g x)
    | Ldv (d, s) -> Printf.sprintf "ldv   r%d, env[%d]" d s
    | Mov (d, a) -> Printf.sprintf "mov   r%d, r%d" d a
    | Add (d, a, b) -> Printf.sprintf "add   r%d, r%d, r%d" d a b
    | Sub (d, a, b) -> Printf.sprintf "sub   r%d, r%d, r%d" d a b
    | Mul (d, a, b) -> Printf.sprintf "mul   r%d, r%d, r%d" d a b
    | Neg (d, a) -> Printf.sprintf "neg   r%d, r%d" d a
    | Sqr (d, a) -> Printf.sprintf "sqr   r%d, r%d" d a
    | Recip (d, a) -> Printf.sprintf "recip r%d, r%d" d a
    | Powr (d, a, b) -> Printf.sprintf "pow   r%d, r%d, r%d" d a b
    | Fma (d, a, b, c) -> Printf.sprintf "fma   r%d, r%d*r%d+r%d" d a b c
    | Addk (d, a, x) -> Printf.sprintf "addk  r%d, r%d, %s" d a (g x)
    | Mulk (d, a, x) -> Printf.sprintf "mulk  r%d, r%d, %s" d a (g x)
    | Call1 (d, f, a) ->
        Printf.sprintf "call  r%d, %s(r%d)" d (Expr.func_name f) a
    | Call2 (d, f, a, b) ->
        Printf.sprintf "call  r%d, %s(r%d, r%d)" d (Expr.func_name f) a b
    | Vmul (d, sa, sb) ->
        Printf.sprintf "vmul  r%d, env[%d]*env[%d]" d sa sb
    | Vmacc (d, acc, sa, sb) ->
        Printf.sprintf "vmacc r%d, r%d + env[%d]*env[%d]" d acc sa sb
    | Jmp t -> Printf.sprintf "jmp   %d" t
    | Jnot (r, a, b, t) ->
        Printf.sprintf "jnot  r%d %s r%d, %d" a (Expr.rel_name r) b t
    | Ste (s, a) -> Printf.sprintf "ste   env[%d], r%d" s a
    | Sto (s, a) -> Printf.sprintf "sto   out[%d], r%d" s a
  in
  Format.pp_print_string ppf s

(* Flop-unit weight of one instruction, on the same scale as
   {!Cost.default}: loads, moves and jumps are free; fused instructions
   charge the operations they combine. *)
let flop_weight code pos =
  let op = code.(pos) in
  if op = op_ldc || op = op_ldv || op = op_mov || op = op_jmp
     || op = op_ste || op = op_sto
  then 0.
  else if op = op_add || op = op_sub || op = op_mul || op = op_neg
          || op = op_sqr || op = op_addk || op = op_mulk || op = op_vmul
          || op = op_jnot
  then 1.
  else if op = op_fma || op = op_vmacc then 2.
  else if op = op_recip then 4.
  else if op = op_pow then 50.
  else if op = op_call1 then Cost.default.w_call (func_of_prim1 code.(pos + 4))
  else if op = op_call2 then Cost.default.w_call (func_of_prim2 code.(pos + 4))
  else invalid_arg "Vm_code.flop_weight: bad opcode"

(* Does this opcode write a register (as opposed to memory / control)? *)
let writes_reg op =
  op <> op_jmp && op <> op_jnot && op <> op_ste && op <> op_sto

let is_fused op = op = op_fma || op = op_vmul || op = op_vmacc || op = op_sqr

(* What each operand field of an instruction denotes, so the optimiser
   and the validator can interpret [dst; a; b; c] generically. *)
type field_kind =
  | K_none
  | K_reg
  | K_env
  | K_out
  | K_const
  | K_prim1
  | K_prim2
  | K_target
  | K_rel

let field_kinds o =
  if o = op_ldc then (K_reg, K_none, K_none, K_const)
  else if o = op_ldv then (K_reg, K_env, K_none, K_none)
  else if o = op_mov || o = op_neg || o = op_sqr || o = op_recip then
    (K_reg, K_reg, K_none, K_none)
  else if o = op_add || o = op_sub || o = op_mul || o = op_pow then
    (K_reg, K_reg, K_reg, K_none)
  else if o = op_fma then (K_reg, K_reg, K_reg, K_reg)
  else if o = op_addk || o = op_mulk then (K_reg, K_reg, K_none, K_const)
  else if o = op_call1 then (K_reg, K_reg, K_none, K_prim1)
  else if o = op_call2 then (K_reg, K_reg, K_reg, K_prim2)
  else if o = op_vmul then (K_reg, K_env, K_env, K_none)
  else if o = op_vmacc then (K_reg, K_reg, K_env, K_env)
  else if o = op_jmp then (K_none, K_none, K_none, K_target)
  else if o = op_jnot then (K_rel, K_reg, K_reg, K_target)
  else if o = op_ste then (K_none, K_reg, K_none, K_env)
  else if o = op_sto then (K_none, K_reg, K_none, K_out)
  else invalid_arg "Vm_code.field_kinds: bad opcode"
