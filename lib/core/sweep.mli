(** Parameter sweeps and Monte Carlo ensembles: run the same model
    across many parameter values and collect a scalar metric from each
    simulation — the "evaluation of numerical experiments" workflow of
    paper §1.1, scaled with the batched ensemble engine.

    The fast path compiles the model {e once}: the swept parameter is
    promoted to a frozen state variable
    ({!Om_lang.Override.promote_parameter}), each value becomes one
    member of a lockstep ensemble ({!Om_ode.Ensemble}) whose initial
    state carries the parameter value, and the whole batch integrates
    through the batched register VM
    ({!Om_codegen.Batch_backend}), optionally sliced across worker
    domains.  When promotion would change the model's meaning (the
    parameter is structurally rebound, or the promoted model no longer
    elaborates), the sweep falls back to the legacy path that
    re-flattens and integrates every value separately. *)

type point = {
  value : float;  (** the swept parameter's value *)
  metric : float;
  steps : int;
  rhs_calls : int;
}

val run :
  source:string ->
  cls:string ->
  param:string ->
  values:float list ->
  tend:float ->
  ?atol:float ->
  ?rtol:float ->
  metric:(Om_ode.Odesys.t -> Om_ode.Odesys.trajectory -> float) ->
  unit ->
  point list
(** Sweep [cls.param] over [values], integrating from the model's
    initial state to [tend], and evaluate [metric] on each trajectory.
    Uses the compile-once ensemble path when the parameter promotes,
    the per-value legacy path otherwise.
    @raise Om_lang.Override.Unknown_target / [Om_lang.Flatten.Error].
    @raise Om_lang.Override.Shadowed when instance bindings rebind the
    parameter wherever the class is used, so that no value would reach
    the model. *)

(** {1 Compile-once API} *)

type compiled
(** A model compiled once with its swept parameters promoted to state
    slots: reusable across any number of batches. *)

type prepared =
  | Promoted of compiled
  | Legacy of string
      (** promotion refused; the payload says why (structural rebinding
          or an elaboration failure of the promoted model) *)

val prepare : source:string -> cls:string -> param:string -> prepared
(** Parse, promote, flatten and compile once.
    @raise Om_lang.Override.Unknown_target on a bad class/parameter
    name (never demoted to [Legacy]). *)

val prepare_many : source:string -> (string * string) list -> prepared
(** Like {!prepare} for several [(class, parameter)] targets at once —
    all promote, or the whole preparation is [Legacy]. *)

val run_compiled :
  ?domains:int ->
  compiled ->
  values:float list ->
  tend:float ->
  ?atol:float ->
  ?rtol:float ->
  metric:(Om_ode.Odesys.t -> Om_ode.Odesys.trajectory -> float) ->
  unit ->
  point list
(** Integrate one batch over a prepared model: one ensemble member per
    value, adaptive lockstep RKF45, RHS rounds optionally split across
    [domains] worker domains (default 1, no pool).  No values yield
    [[]] without building a batch, like the legacy path of {!run}. *)

(** {1 Monte Carlo} *)

type dist =
  | Uniform of float * float  (** inclusive lower bound, upper bound *)
  | Normal of float * float  (** mean, standard deviation *)

type mc_sample = {
  draws : float array;  (** one value per spec, in spec order *)
  mc_metric : float;
  mc_steps : int;
  mc_rhs_calls : int;
}

type mc_report = {
  samples : mc_sample list;
  mean : float;
  stddev : float;  (** population standard deviation of the metric *)
  promoted : bool;  (** [false] when the legacy fallback ran *)
}

val monte_carlo :
  source:string ->
  specs:(string * string * dist) list ->
  samples:int ->
  seed:int ->
  tend:float ->
  ?atol:float ->
  ?rtol:float ->
  ?domains:int ->
  metric:(Om_ode.Odesys.t -> Om_ode.Odesys.trajectory -> float) ->
  unit ->
  mc_report
(** Seeded Monte Carlo over [(class, parameter, distribution)] specs:
    [samples] parameter sets are drawn deterministically (fixed draw
    order — per sample, then per spec — from [Random.State.make
    [|seed|]]), integrated as one ensemble when every spec promotes,
    and summarised.  The same seed yields the same draws, and therefore
    the same report, on every run.
    @raise Om_lang.Override.Unknown_target on a bad spec target.
    @raise Om_lang.Override.Shadowed on a spec no value would reach, as
    {!run}.
    @raise Invalid_argument on [samples < 1] or an empty spec list. *)

val final_value : string -> Om_ode.Odesys.t -> Om_ode.Odesys.trajectory -> float
(** Convenience metric: the final value of a named state. *)

val to_series : string -> point list -> Om_viz.Plot.series
(** Plot-ready (value, metric) series. *)
