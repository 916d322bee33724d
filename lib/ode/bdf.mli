(** Backward differentiation formulas (BDF) of orders 1–3 with modified
    Newton iteration — the stiff half of LSODA (paper §3.2.1: "one of the
    solvers which implements BDF methods, which are usually used to solve
    stiff ODEs").

    Fixed step size.  The Newton iteration matrix [I - h*beta*J] is
    factorised once per step and reused across iterations (modified
    Newton); the Jacobian comes from the system's analytic function when
    available, otherwise finite differences.  [jac_mode] selects the
    dense or sparse Newton path ({!Odesys.jac_mode}, default [Auto]),
    with the sparse path producing trajectories bitwise equal
    to the dense one (see {!Sparse}). *)

val integrate :
  ?order:int ->
  ?newton_tol:float ->
  ?max_newton:int ->
  ?jac_mode:Odesys.jac_mode ->
  ?jac_batch:Jacobian.batch_rhs ->
  Odesys.t ->
  t0:float ->
  y0:float array ->
  tend:float ->
  h:float ->
  Odesys.trajectory
(** [jac_batch] lets the sparse finite-difference path evaluate its
    colored column groups through a caller-supplied (possibly parallel)
    batch evaluator.
    @raise Invalid_argument for orders outside 1..3.
    @raise Om_guard.Om_error.Error ([Newton_failure]) if Newton fails to
    converge or the iteration matrix is singular. *)

val solve_implicit_stage :
  ?jac_mode:Odesys.jac_mode ->
  Odesys.t ->
  tol:float ->
  max_iter:int ->
  t_next:float ->
  beta_h:float ->
  rhs_const:float array ->
  alpha0:float ->
  y_guess:float array ->
  float array
(** Solve [alpha0 * y = rhs_const + beta_h * f(t_next, y)] by modified
    Newton; shared with the LSODA-style driver.  Resolves the Jacobian
    plan per call; drivers that step repeatedly should resolve once with
    {!Jacobian.plan} and call {!solve_implicit_stage_with}.
    @raise Om_guard.Om_error.Error ([Newton_failure]) on non-convergence
    or a singular iteration matrix. *)

val solve_implicit_stage_with :
  Jacobian.plan ->
  Odesys.t ->
  tol:float ->
  max_iter:int ->
  t_next:float ->
  beta_h:float ->
  rhs_const:float array ->
  alpha0:float ->
  y_guess:float array ->
  float array
(** {!solve_implicit_stage} against a pre-resolved plan, so the sparse
    workspace (pattern, coloring, fd buffers) is built once per
    integration rather than once per step. *)
