(** Peephole / fusion optimiser for the flat register code produced by
    {!Vm}'s lowering.

    Input programs must use write-once virtual registers: every register
    is assigned by exactly one instruction, except the join register of
    an [If], which is assigned by the final [Mov] of each branch.  Jump
    targets must be forward-only.  {!Vm.compile_stmts} guarantees both.

    Passes, run in rounds to a fixpoint: constant folding and strength
    reduction, copy propagation, instruction fusion
    ([Mul]+[Add] -> [Fma], [Add]+[Neg] -> [Sub], load-load-mul[-add]
    superinstructions [Vmul]/[Vmacc]), and dead-store elimination.  Each
    pass completes its own work in one sweep, and the driver starts
    another round only when a pass made work for an earlier one (fusion
    made a [Mov]; copy propagation made a [Mul] of a register by
    itself), so it stops at the fixpoint without a confirming round and
    with no round cap: optimising the output again returns it unchanged.
    The passes allocate nothing per instruction.

    All rewrites are IEEE-exact with respect to {!Eval.eval}: the same
    bits for a non-NaN result, a NaN for a NaN (its sign bit may differ,
    e.g. [x * -1 -> -x]). *)

type t = {
  code : int array;  (** flat code, {!Vm_code.stride} words/instruction *)
  consts : float array;  (** constant pool *)
  nregs : int;  (** virtual register count *)
}

type scratch
(** Working arrays for {!optimize}, reusable from one program to the
    next.  Not thread-safe: give each domain its own. *)

val scratch : unit -> scratch

val optimize :
  ?private_env_slot:(int -> bool) -> scratch -> len:int -> t -> t
(** [optimize scratch ~len p] optimises the program held in the first
    [len] words of [p.code] (an emitter's buffer needs no copy), using
    [scratch]'s working arrays; the result shares none of them, nor
    [p.code].  [private_env_slot s] should return [true] for environment
    slots that only this program may read (task-private CSE
    temporaries); stores to such slots are deleted when no surviving
    instruction reads them.  Defaults to no slot being private. *)
