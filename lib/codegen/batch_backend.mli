(** Batched (SoA) execution of a compiled bytecode backend.

    Wraps the sequential program of a {!Bytecode_backend.t}
    ({!Bytecode_backend.t.sequential}) into an
    {!Om_expr.Vm_batch} instance over a structure-of-arrays
    environment, and exposes the batched right-hand side [brhs]: per
    lane it computes exactly what {!Bytecode_backend.rhs_fn} computes
    (set state, run the sequential program, copy the derivatives out) —
    Int64-bitwise, per the {!Om_expr.Vm_batch} contract.

    The [brhs] signature matches {!Ode.Ensemble.brhs}, so a batch
    backend plugs directly into the ensemble steppers.

    All mutable state (environment columns, output columns, register
    rows) is lane-indexed, so disjoint lane ranges of the same instance
    may be driven concurrently from different domains without cloning.
    [brhs] is allocation-free. *)

type t

val of_program : Om_expr.Vm.program -> dim:int -> width:int -> t
(** [of_program p ~dim ~width] batches a sequential program [p] (such
    as [Pipeline.rhs_program]) of a [dim]-state system: [p] reads the
    states, then time, and writes the derivatives to its first [dim]
    outputs.  Builds no per-task code.
    @raise Invalid_argument if [width < 1]. *)

val create : Bytecode_backend.t -> width:int -> t
(** [of_program] of the backend's sequential program.
    @raise Invalid_argument if [width < 1]. *)

val brhs :
  t ->
  times:float array ->
  y:float array array ->
  ydot:float array array ->
  lo:int ->
  hi:int ->
  unit
(** Evaluate the system derivative for lanes [lo..hi-1]:
    [ydot.(i).(j)] from state columns [y.(i).(j)] at time [times.(j)].
    Lanes outside the range are untouched. *)
