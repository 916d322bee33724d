(** A second-order Rosenbrock (ROW) method for stiff systems.

    Rosenbrock methods make the Newton iteration of implicit solvers
    unnecessary: each step performs a fixed number of linear solves with
    the matrix [I - gamma h J].  They were the main alternative to BDF for
    stiff problems in the early-1990s literature the paper draws on, and
    they give this library a stiff one-step method to complement the
    multistep BDF family.

    This is the L-stable two-stage ROS2 scheme of Verwer et al. with
    [gamma = 1 + 1/sqrt 2]; both stages reuse one LU factorisation,
    built by {!Jacobian.newton_factor} with [alpha = 1] and
    [beta = gamma h]. *)

val integrate :
  ?jac_mode:Odesys.jac_mode ->
  ?jac_batch:Jacobian.batch_rhs ->
  Odesys.t ->
  t0:float ->
  y0:float array ->
  tend:float ->
  h:float ->
  Odesys.trajectory
(** Fixed-step integration (the final step is shortened to land on
    [tend]).  [jac_mode] (default [Auto]) selects the dense or sparse
    path for [I - gamma h J]; the sparse path is bitwise-identical to the
    dense one.  @raise Invalid_argument on a nonpositive step.
    @raise Linalg.Singular if [I - gamma h J] degenerates. *)
