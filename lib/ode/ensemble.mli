(** Ensemble integration.

    An ensemble advances a batch of member trajectories of the {e same}
    ODE system — differing in initial state and promoted parameters —
    with one solver loop over structure-of-arrays state
    ([y.(state).(lane)], mirroring {!Om_expr.Vm_batch}).  The
    right-hand side is evaluated for a whole lane range per call, so a
    batched backend amortises instruction decode across the batch.

    {b Bitwise contract.}  Every member is its own scalar run, whatever
    the batch width and whichever members share the batch, given a
    right-hand side whose lanes do not interact (the batched register
    VM's, at any domain count):
    {ul
    {- {!rk4} advances every member with the same step sequence; each
       member's trajectory is Int64-bitwise identical to a scalar
       {!Rk.integrate_fixed} [Rk.rk4] run of the per-lane RHS.}
    {- {!rkf45} steps every lane on its own, with its own time, step
       size and attempt count, through {!Rk.rkf45}'s tableau and
       controller; each member's trajectory, accepted steps and
       rejections are Int64-equal to a scalar {!Rk.rkf45} run of the
       per-lane RHS from the member's start.}} *)

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
          member [m] (lane permutations are undone). *)
  steps : int array;  (** accepted steps, per member *)
  rejected : int array;  (** rejected attempts, per member *)
  rhs_evals : int array;  (** per-member RHS stage evaluations *)
  rhs_batches : int;  (** batched RHS calls issued *)
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
(** Adaptive RKF45, every lane stepping on its own.  Each attempt
    round runs the six stages of every unfinished lane, one batched RHS
    call per stage; a lane that reaches [tend] leaves the range the
    RHS is called over.  Defaults match the scalar solver: [atol =
    1e-8], [rtol = 1e-6], [h0 = span /. 100.], [max_steps = 1_000_000]
    (counting each lane's own attempts, as {!Rk.rkf45} does).
    @raise Om_guard.Om_error.Error ([Step_failure]) when a lane
    exhausts the attempt budget. *)
