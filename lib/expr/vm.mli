(** Register-based, allocation-free expression VM.

    There is one kind of program: a statement block, whose statements
    each evaluate an expression and store it to an env slot (a CSE
    temporary) or an out slot (a derivative root).  A single expression
    is a block of one [To_out 0] statement.

    The compiler lowers {!Expr.t} into a flat instruction array
    ({!Vm_code}) with pre-resolved register slots and a separate
    constant pool — a product or sum led by a literal constant straight
    to [Mulk] ([Neg] for [-1]) or [Addk], a square or reciprocal power
    to [Sqr] or [Recip] — runs the {!Peephole} optimiser over it
    (constant folding, [Fma]/[Vmul]/[Vmacc] fusion, dead-store
    elimination), and
    validates every operand once — so the interpreter is a tight loop
    over [Array.unsafe_get]/[unsafe_set] with zero heap allocation in
    steady state.  Primitives dispatch directly to [float -> float]
    externals; there is no per-call argument list.

    Lowering follows the expression DAG: a compound subtree reached
    again through another parent ([==], not structural equality) is
    computed once and its register reused, so code size is linear in
    the number of distinct nodes rather than in the tree size.  Reuse
    never crosses out of an [If] arm or over a [To_env] store.

    Semantics match {!Eval.eval}: the same bits (Int64) for a non-NaN
    result, up to the sign of zero in empty/unit summands (the tree
    evaluator folds sums from [0.] and products from [1.]; the VM folds
    pairwise), and a NaN for a NaN.  A NaN's sign bit may differ: the VM
    negates where Eval multiplies by [-1.], and x86-64 keeps the sign in
    [-1. *. nan] but flips it in [-. nan].

    A program owns a scratch register file: running the same program
    concurrently from two domains is a race.  Use {!clone_scratch} to
    give each domain its own register file over the shared (immutable)
    instruction stream. *)

type program

(** Where a statement stores its value. *)
type target =
  | To_env of int  (** env slot — CSE temporaries *)
  | To_out of int  (** output slot — derivative roots *)

type stats = {
  instrs : int;  (** static instruction count *)
  flops : float;  (** static flop units on the {!Cost.default} scale *)
  fused : int;  (** fused instructions ([Fma]/[Vmul]/[Vmacc]/[Sqr]) *)
}

type scratch
(** The lowering's working buffers — the instruction emitter and the
    peephole pass's arrays — lent to every program of one compile, so
    that a compile of many programs does not allocate instruction-sized
    arrays for each.  Programs never share a scratch's arrays.  Not
    thread-safe: concurrent compiles need one scratch each. *)

val scratch : unit -> scratch

val compile_stmts :
  ?optimize:bool ->
  ?private_env_slot:(int -> bool) ->
  ?scratch:scratch ->
  out_size:int ->
  Layout.t ->
  (Expr.t * target) list ->
  program
(** Compile a statement block — each expression evaluated in order and
    stored to its target; variables resolve to slots through the
    layout.  [optimize] (default [true]) runs the peephole pass.
    [private_env_slot] marks env slots only this program reads
    (task-private CSE temporaries), letting the optimiser delete stores
    that end up unread.  An If that no arm encloses reads, in each arm,
    what the same arm of an earlier such If computed, when the two
    conditions have the same relation and operand values (registers,
    constant bits, env slots) since the last [To_env] store: both take
    the same arm.  [scratch] defaults to a fresh one.  Run with
    {!exec}.
    @raise Eval.Unbound for variables the layout lacks. *)

val clone_scratch : program -> program
(** An independently runnable copy of the program: the instruction
    stream, constant pool and metadata are shared (they are immutable
    after compilation), only the mutable register file is fresh.  O(the
    register count), no re-lowering or re-validation — cheap enough to
    call per job.  The clone and the original may run concurrently from
    different domains. *)

val exec : program -> env:float array -> out:float array -> unit
(** Run a program for its stores.  Allocation-free in steady state.
    [env] ([out]) must be at least the compile-time env (out) size. *)

(** The validated innards of a program, for engines that reinterpret the
    same instruction stream — currently the batched SoA interpreter
    ({!Vm_batch}).  The arrays are the live program, not copies: treat
    them as read-only. *)
type raw = {
  rw_code : int array;
  rw_consts : float array;
  rw_nregs : int;
  rw_env_size : int;
  rw_out_size : int;
}

val raw : program -> raw
(** Every operand of [rw_code] has been checked by compile-time
    validation, so a reinterpreting engine may use unsafe array access
    with the same justification as {!exec}. *)

val length : program -> int
(** Instruction count. *)

val instructions : program -> Vm_code.instr array
(** Decoded form, for inspection and tests. *)

val disassemble : program -> string

val stats : program -> stats
