(** Instruction-set definition shared by the register-VM compiler
    ({!Vm}) and the flat-code optimiser ({!Peephole}).

    Programs are flat [int array]s with {!stride} words per instruction,
    [op; dst; a; b; c], plus a separate float constant pool.  Operand
    meaning depends on the opcode; see the opcode comments in the
    implementation.  Jump targets are absolute word offsets into the code
    array. *)

val stride : int

val op_ldc : int
val op_ldv : int
val op_mov : int
val op_add : int
val op_sub : int
val op_mul : int
val op_neg : int
val op_sqr : int
val op_recip : int
val op_pow : int
val op_fma : int
val op_addk : int
val op_mulk : int
val op_call1 : int
val op_call2 : int
val op_vmul : int
val op_vmacc : int
val op_jmp : int
val op_jnot : int
val op_ste : int
val op_sto : int
val n_opcodes : int

val prim1_of_func : Expr.func -> int
(** @raise Invalid_argument on a 2-argument function. *)

val prim2_of_func : Expr.func -> int
val func_of_prim1 : int -> Expr.func
val func_of_prim2 : int -> Expr.func
val prim1_count : int
val prim2_count : int
val rel_id : Expr.rel -> int

(** Decoded instruction, for disassembly and tests only.  Register
    operands come first; [Ste]/[Sto] are [(slot, src_reg)]. *)
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

val decode : int array -> float array -> instr array
val pp_instr : Format.formatter -> instr -> unit

val flop_weight : int array -> int -> float
(** Static flop-unit cost of the instruction at a word offset, on the
    {!Cost.default} scale. *)

val writes_reg : int -> bool
val is_fused : int -> bool

(** Operand-field interpretation for generic traversal. *)
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

val field_kinds : int -> field_kind * field_kind * field_kind * field_kind
(** [(dst, a, b, c)] kinds for an opcode.  Note [Ste]'s env slot and
    [Sto]'s out slot are {e written}, not read; every other [K_env]/[K_out]
    field is a read. *)
