(** Lockstep ensemble integration.

    An ensemble advances a batch of member trajectories of the {e same}
    ODE system — differing in initial state and promoted parameters —
    with one solver loop over structure-of-arrays state
    ([y.(state).(lane)], mirroring {!Om_expr.Vm_batch}).  The
    right-hand side is evaluated for a whole lane range per call, so a
    batched backend amortises instruction decode across the batch.

    {b Bitwise contracts.}
    {ul
    {- {!rk4} advances every member with the same step sequence; each
       member's trajectory is Int64-bitwise identical to a scalar
       {!Rk.integrate_fixed} [Rk.rk4] run of the per-lane RHS.}
    {- {!rkf45} at width 1 reduces exactly to the scalar {!Rk.rkf45}
       controller (same stages, WRMS error weights, safety factor and
       clamps): batch-of-1 is bitwise identical to the scalar adaptive
       solver.}
    {- When {!rkf45} splits a group, the continuing (passing) members'
       step-size sequence depends only on their own error estimates, so
       a stiff member never perturbs the others' trajectories — they
       stay bitwise identical to a run without the stiff member.}}

    {b Split/merge.}  An adaptive attempt whose error estimates diverge
    partitions the lane range stably into passing and failing members;
    the failing subgroup is sub-stepped recursively to the rendezvous
    point [t + h'] and merged back, so groups re-merge at every macro
    step and fragmentation cannot accumulate. *)

type brhs =
  times:float array ->
  y:float array array ->
  ydot:float array array ->
  lo:int ->
  hi:int ->
  unit
(** Batched right-hand side over lanes [lo..hi-1] of SoA columns:
    read [y.(i).(j)] and the per-lane time [times.(j)], write
    [ydot.(i).(j)].  Lanes outside the range must be left untouched. *)

type t
(** Mutable ensemble state: SoA batch state, preallocated stage
    workspaces, per-member counters.  Integration runs mutate the state
    in place and continue from wherever the previous run stopped. *)

type report = {
  final : float array array;
      (** Member-major final states: [final.(m).(i)] is state [i] of
          member [m] (lane permutations from group splits are undone). *)
  steps : int array;  (** accepted steps, per member *)
  rejected : int array;  (** rejected attempts, per member *)
  rhs_evals : int array;  (** per-member RHS stage evaluations *)
  rhs_batches : int;  (** batched RHS calls issued (all groups) *)
  splits : int;  (** adaptive group splits *)
  merges : int;  (** subgroup rendezvous merges ([= splits]) *)
  max_group_depth : int;  (** deepest split recursion reached *)
  trajectories : Odesys.trajectory array option;
      (** per-member trajectories when recording was requested *)
}

val create : dim:int -> f:brhs -> float array array -> t
(** [create ~dim ~f y0] builds an ensemble of [Array.length y0] members
    with initial states [y0.(m)] (each of length [dim]).
    @raise Invalid_argument on an empty batch or a length mismatch. *)

val rk4 : ?record:bool -> t -> t0:float -> tend:float -> h:float -> report
(** Fixed-step lockstep RK4 over [t0, tend] with step [h] (final step
    shortened to land on [tend]).  Zero heap allocation per step when
    [record] is [false] (the default). *)

val rkf45 :
  ?record:bool ->
  ?atol:float ->
  ?rtol:float ->
  ?h0:float ->
  ?max_steps:int ->
  t ->
  t0:float ->
  tend:float ->
  report
(** Adaptive lockstep RKF45 with group split/merge.  Defaults match the
    scalar solver: [atol = 1e-8], [rtol = 1e-6], [h0 = span /. 100.],
    [max_steps = 1_000_000] (counting attempted steps across all
    groups).
    @raise Om_guard.Om_error.Error ([Step_failure]) when the attempt
    budget is exhausted. *)
