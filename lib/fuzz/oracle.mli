(** Cross-strategy invariant oracle for generated models.

    {!check} pushes one surface model through the entire pipeline and
    verifies every invariant the compiler's correctness story rests on:

    - {b roundtrip}: [unparse → parse → unparse] is a textual fixpoint
      and the reparsed model flattens identically;
    - {b flatten} / {b typecheck}: a generated (well-typed by
      construction) model flattens without error and typechecks;
    - {b flatten-idempotence}: re-flattening the unparsed flat model
      reproduces it up to the positional renaming of
      {!Om_lang.Unparse.flat_model};
    - {b scc} / {b topo}: Tarjan components partition the dependency
      graph, the condensation is acyclic, preserves cross-component
      edges, and topologically sorts consistently;
    - {b schedule}: LPT on 1/2/4 processors and the semi-dynamic
      rescheduler produce valid schedules — every task exactly once, on
      a processor in range, with consistent loads and makespan;
    - {b jacobian} / {b jacobian-pattern} / {b jacobian-colored}: the
      symbolically derived Jacobian agrees with forward differences
      within the fd truncation tolerance (finite entries only, and
      skipping kinks — min/max/abs ties, detected as forward and
      backward differences disagreeing — where the derivative does not
      exist and the subgradient branch convention legitimately differs
      from a one-sided difference); every
      numerically nonzero fd entry lies inside the declared read-set
      sparsity pattern (the superset property colored compression needs);
      and the colored compressed-column evaluation of a system built
      from the RHS closure (no symbolic Jacobian) decompresses to the
      uncompressed forward differences bitwise;
    - {b trajectory}: bitwise ([Int64.bits_of_float]) identity of the
      full RK4 trajectory across the raw-equation interpreter, the
      register VM with and without the peephole pass, the
      simulated machine (with and without semi-dynamic rescheduling),
      and real OCaml domains with 1, 2 and 4 workers including live
      reschedules;
    - {b split}: the model compiled again with a split threshold of 2
      flop units, so that its equations split into hoisted partials and
      residuals, reproduces the raw-equation interpreter's trajectory
      bitwise sequentially, on the simulated machine and on 1 and 2
      real domains, with and without semi-dynamic rescheduling;
    - {b lsoda}: the model with one fast mode appended (a state relaxing
      onto [cos t] at rate 2000, so that LSODA reaches its BDF phase and
      reads every equation's Jacobian) integrated by LSODA through the
      runtime, sequentially and on a split plan on 2 real domains, under
      [jac_mode] [Auto] and [Sparse], reproduces
      [Om_ode.Odesys.of_equations] plus [Om_ode.Lsoda.integrate]
      bitwise: every path takes the model's symbolic Jacobian.  A
      reference run that fails or leaves the finite range is skipped,
      and one of more than 5,000 steps is checked sequentially only
      (each RHS call on worker domains is a barrier round; the result's
      [lsoda_sequential_only] reports it).

    - {b sweep}: for one class parameter (picked from the source text),
      a 3-value {!Objectmath.Sweep.run} is refused with
      [Om_lang.Override.Shadowed] exactly when every use of the class
      rebinds the parameter; otherwise each point agrees, state by
      state and within 1e-5 relative to [1 + |x|], with a scalar
      [Om_ode.Rk.rkf45] run of the model with the value written in by
      [Om_lang.Override.set_parameter], both at atol = rtol = 1e-10
      (the two adaptive runs take different steps, so agreement is not
      bitwise).  A scalar run that
      fails or leaves the finite range skips the strategy.

    When the reference trajectory is non-finite (explosive dynamics the
    bounded grammar cannot fully rule out) the trajectory matrix is
    skipped and the case is reported as discarded; every structural
    invariant above still runs.

    With [?chaos:seed], a {b chaos} invariant joins the matrix: one
    fault drawn by {!Om_guard.Fault_plan.seeded} (NaN/Inf poisoned into
    a task output, or a worker delay long enough to trip the barrier
    deadline) is injected into a 2-domain run.  The runtime must mask it
    — guard, retry, or degrade — and still reproduce the fault-free
    reference trajectory bitwise; a plan that injects nothing over the
    whole run is itself a violation. *)

type violation = { invariant : string; detail : string }

val pp_violation : violation Fmt.t

type result = {
  dim : int;  (** flat state dimension, 0 if flattening failed *)
  n_tasks : int;  (** generated task count, 0 if compilation failed *)
  split : bool;
      (** the split-plan strategies ran on a plan that split an
          equation *)
  lsoda_sequential_only : bool;
      (** an LSODA reference of more than 5,000 steps skipped its
          2-domain split-plan run *)
  sweep_refused : bool;
      (** the sweep strategy's parameter is rebound by every use of its
          class, and the sweep was refused *)
  discarded : string option;
      (** set when the trajectory matrix was skipped, with the reason *)
  violations : violation list;  (** empty = all invariants hold *)
}

val check : ?chaos:int -> Om_lang.Ast.model -> result
(** [check ?chaos m] runs every invariant; [chaos] seeds the optional
    fault-injection strategy (see above). *)
