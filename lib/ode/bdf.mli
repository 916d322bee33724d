(** Backward differentiation formulas (BDF) of orders 1–3 with modified
    Newton iteration — the stiff half of LSODA (paper §3.2.1: "one of the
    solvers which implements BDF methods, which are usually used to solve
    stiff ODEs").

    Fixed step size.  The Newton iteration matrix [I - h*beta*J] is
    factorised once per step by {!Jacobian.newton_factor} and reused
    across iterations (modified Newton); the Jacobian comes from the
    system's analytic function when available, otherwise finite
    differences.  [jac_mode] selects the
    dense or sparse Newton path ({!Odesys.jac_mode}, default [Auto]),
    with the sparse path producing trajectories bitwise equal
    to the dense one (see {!Sparse}). *)

val integrate :
  ?order:int ->
  ?jac_mode:Odesys.jac_mode ->
  Odesys.t ->
  t0:float ->
  y0:float array ->
  tend:float ->
  h:float ->
  Odesys.trajectory
(** @raise Invalid_argument for orders outside 1..3.
    @raise Om_guard.Om_error.Error ([Newton_failure]) if Newton fails to
    converge (weighted update norm above [1e-10] after 25 iterations) or
    the iteration matrix is singular. *)

val solve_implicit_stage :
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
(** Solve [alpha0 * y = rhs_const + beta_h * f(t_next, y)] by modified
    Newton against a plan resolved once per integration with
    {!Jacobian.plan}; shared with the LSODA-style driver.  The Newton
    matrix comes from {!Jacobian.newton_factor} at [y_guess].
    @raise Om_guard.Om_error.Error ([Newton_failure]) on non-convergence
    or a singular iteration matrix. *)
