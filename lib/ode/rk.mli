(** Explicit Runge–Kutta solvers: fixed-step RK4 ("single-step
    methods" of paper §2.4) and adaptive RKF45 with embedded error
    control. *)

type fixed_stepper
(** One fixed step [t, y, h -> y(t+h)]. *)

val rk4 : fixed_stepper

val integrate_fixed :
  ?max_retries:int ->
  fixed_stepper ->
  Odesys.t ->
  t0:float ->
  y0:float array ->
  tend:float ->
  h:float ->
  Odesys.trajectory
(** March from [t0] to [tend] with constant step (the last step is shortened
    to land exactly on [tend]).  Records every step.

    A guarded runtime fault ({!Om_guard.Om_error.Error}) raised by the RHS
    during a step is answered with backoff: the step is first retried at
    the {e same} size (a transient fault — e.g. an injected poison that
    fires once — then recovers with a bitwise-identical trajectory), then
    with halved sizes, up to [max_retries] (default 8) attempts.
    @raise Om_guard.Om_error.Error ([Step_failure], naming the offending
    equation in [reason]) when the retry budget is exhausted. *)

val rkf45 :
  ?atol:float ->
  ?rtol:float ->
  ?h0:float ->
  ?max_steps:int ->
  ?max_retries:int ->
  Odesys.t ->
  t0:float ->
  y0:float array ->
  tend:float ->
  Odesys.trajectory
(** Adaptive Runge–Kutta–Fehlberg 4(5).  Steps are accepted when the
    embedded error estimate passes the weighted RMS test with weights
    [atol + rtol * max(|y|, |y5|)]; after every attempt the step becomes
    [h *. rkf_step_factor err].  Guarded runtime faults back off like
    {!integrate_fixed}: same-size retry first, then halving, bounded by
    [max_retries] (default 8) consecutive attempts.
    @raise Om_guard.Om_error.Error ([Step_failure]) if [max_steps]
    (default 1_000_000) or the retry budget is exhausted. *)

(** {1 The RKF45 tableau}

    Shared with {!Ensemble.rkf45}, whose lanes must take {!rkf45}'s
    steps bit for bit.  Read-only: the arrays are not to be mutated. *)

val rkf_c : float array
(** Stage nodes [c.(s)]. *)

val rkf_a : float array array
(** Stage coefficients: row [s] holds [a.(s).(0..s-1)]. *)

val rkf_b5 : float array
(** Weights of the 5th-order solution, which is the one kept. *)

val rkf_b4 : float array
(** Weights of the embedded 4th-order solution, for the error estimate. *)

val rkf_step_factor : float -> float
(** The next step's factor for an attempt whose WRMS error is [err]:
    [0.9 *. err ** -0.2] clamped to [[0.2, 5]], and [5.] at [err = 0]. *)
