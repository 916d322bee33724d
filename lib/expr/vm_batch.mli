(** Batched structure-of-arrays interpreter for register-VM programs.

    A batch instance re-executes a validated {!Vm.program} (a statement
    block: it reads env columns and stores to env and out columns) over
    [width] independent environments at once: every virtual register
    becomes a [float array] of length [width] (batch-major SoA layout),
    so one instruction decode drives a tight float-array kernel over
    the whole batch instead of one lane.  This amortises the scalar
    VM's per-op dispatch the same way the register VM amortised the
    tree walker's per-node dispatch.

    {b Bitwise contract.}  Per lane, the arithmetic is the scalar
    interpreter's, operation for operation ({!Expr.eval_pow}, inlined
    [Float.min]/[Float.max], two-rounding [fma]) — lane [j] of a batch
    run is Int64-bitwise identical to a scalar {!Vm.exec} over lane
    [j]'s environment, and batch width 1 reproduces the scalar VM
    exactly.

    {b Control flow} is linearised SIMT-style with a per-lane wake-up
    counter: a lane failing a [jnot] sleeps until the branch target, a
    [jmp] puts the awake lanes to sleep until the join.  Forward-only
    structured jumps (the only kind {!Vm} emits) make this exact: each
    lane executes precisely the scalar taken path.  There is a single
    unmasked instruction kernel, run over a list of lane indices:
    between jumps and wake-ups the set of awake lanes is fixed, so each
    such segment runs as exactly one kernel call over the awake lanes,
    compacted into a list however finely they interleave.  A segment no
    lane sleeps in runs over the identity list, so a jump-free program
    is one call over the whole lane range, and a branch no awake lane
    takes is skipped like in the scalar interpreter.

    {b Program conditioning.}  [create] rewrites the instruction stream
    for batched execution, preserving per-lane semantics bitwise: the
    compiler's write-once virtual registers are renamed onto a small
    physical file by occurrence-interval reuse (a few hundred
    [width]-float rows would fall out of cache), and [ldv]s are fused
    into their consumer as batch-only env-operand opcodes, deleting a
    row round-trip per load.  A load is fused only when its register
    has exactly one reader in the whole program — [jnot], [ste] and
    [sto] reads counted — and that reader sits in the load's jump-free
    segment with no store to the loaded slot in between: a load shared
    across a branch keeps its row.

    {b Concurrency.}  All mutable state is lane-indexed, the awake-lane
    buffer included: a run over lanes [lo..hi-1] writes its compacted
    lane list only at positions [lo..hi-1].  So disjoint lane ranges of
    the same instance may run concurrently from different domains.
    Overlapping ranges race, as do concurrent runs over shared env/out
    columns with overlapping lanes.

    {b Allocation.}  [exec] performs zero heap allocation: the register
    file, sleep counters and awake-lane buffer are preallocated at
    {!create}, and the interpreter loops are closure-free. *)

type t

val create : Vm.program -> width:int -> t
(** Wrap a compiled (and therefore validated) program for batched
    execution at the given width.  The instruction stream and constant
    pool are shared with the program; the register file is fresh.
    @raise Invalid_argument if [width < 1]. *)

val exec :
  t -> env:float array array -> out:float array array -> lo:int -> hi:int ->
  unit
(** [exec t ~env ~out ~lo ~hi] runs the program for lanes [lo..hi-1].
    [env] and [out] are SoA columns: [env.(slot).(lane)] mirrors the
    scalar [env.(slot)], and must provide at least the compile-time
    env/out sizes, each column at least [hi] long.  Allocation-free.
    @raise Invalid_argument on a bad lane range, [env]/[out] shorter
    than the compile-time sizes, or a column the program reads or
    writes shorter than [hi] — checked on every call. *)
