(** LSODA-style automatic stiff/non-stiff switching solver.

    The paper drives its generated RHS code with LSODA from ODEPACK
    (Hindmarsh & Petzold), which "automatically selects between methods for
    stiff and nonstiff systems".  This module reproduces that structure with
    a variable-step order-2 Adams–Bashforth–Moulton pair for the non-stiff
    regime and a variable-step BDF2 with modified Newton for the stiff
    regime, switching on a step-size/stability heuristic in the spirit of
    Petzold (SIAM J. Sci. Stat. Comput. 4(1), 1983): when the
    accuracy-chosen step keeps running into the explicit method's stability
    bound (h·L ≈ 1 with L a local Lipschitz estimate), the stiff method
    takes over; when the stiff method's steps are comfortably inside the
    explicit stability region again, control returns to Adams. *)

type mode = Adams_mode | Bdf_mode

type result = {
  trajectory : Odesys.trajectory;
  switches : (float * mode) list;
      (** Times at which the method changed, with the new method. *)
  final_mode : mode;
}

val integrate :
  ?atol:float ->
  ?rtol:float ->
  ?h0:float ->
  ?max_steps:int ->
  ?max_retries:int ->
  ?jac_mode:Odesys.jac_mode ->
  Odesys.t ->
  t0:float ->
  y0:float array ->
  tend:float ->
  result
(** Integration starts in the Adams mode.
    Guarded runtime faults ({!Om_guard.Om_error.Error}) raised by the RHS
    during an attempted step are answered with backoff — same-size retry
    first (bitwise-identical recovery from transient faults), then step
    halving — bounded by [max_retries] (default 8) consecutive attempts.
    Newton non-convergence inside a BDF attempt keeps its classic
    treatment (reject, quarter the step).
    [jac_mode] (default [Auto], see {!Odesys.jac_mode}) selects the
    Newton-matrix path for the stiff regime; the sparse path is
    bitwise-identical to the dense one.
    @raise Om_guard.Om_error.Error ([Step_failure]) when the step count
    budget (default 2_000_000), the retry budget, or the minimum step
    size is exhausted. *)
