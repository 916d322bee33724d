(** Parameter sweeps and Monte Carlo ensembles: run the same model
    across many parameter values and collect the final values of named
    states from each simulation — the "evaluation of numerical
    experiments" workflow of paper §1.1, scaled with the batched
    ensemble engine.

    The model compiles {e once}: each swept parameter is promoted
    ({!Om_lang.Override.promote_parameter}), so that its default reads
    a frozen state.  Each value becomes one member of an ensemble
    ({!Om_ode.Ensemble}) whose frozen states carry the value, and whose
    initial values that read the parameter are evaluated with it; the
    whole batch integrates once, by adaptive RKF45 through the batched
    register VM ({!Om_codegen.Batch_backend}), optionally sliced across
    worker domains.  Every member steps on its own: a point, its steps
    and its RHS calls are the same whichever other values share the
    batch.  Members keep their final states, not their
    trajectories.  Parts, subclasses and instances that rebind the
    parameter with a [with] binding keep their bound value, as in the
    unswept model. *)

type point = {
  value : float;  (** the swept parameter's value *)
  finals : float array;  (** the final value of each named state *)
  steps : int;
  rhs_calls : int;
}

val run :
  ?domains:int ->
  source:string ->
  cls:string ->
  param:string ->
  values:float list ->
  tend:float ->
  ?atol:float ->
  ?rtol:float ->
  states:string array ->
  unit ->
  point list
(** Sweep [cls.param] over [values], integrating from the model's
    initial state to [tend], and report the final values of [states].
    RHS rounds are split across [domains] worker domains (default 1,
    no pool).  No values yield [[]] without building a batch.
    @raise Om_lang.Override.Unknown_target / [Om_lang.Flatten.Error].
    @raise Om_lang.Override.Shadowed when every use of the class
    rebinds the parameter, so that no value would reach the model.
    @raise Invalid_argument on [domains < 1] or a state the model does
    not have. *)

(** {1 Monte Carlo} *)

type dist =
  | Uniform of float * float  (** inclusive lower bound, upper bound *)
  | Normal of float * float  (** mean, standard deviation *)

type mc_sample = {
  draws : float array;  (** one value per spec, in spec order *)
  mc_final : float;  (** the final value of the named state *)
  mc_steps : int;
  mc_rhs_calls : int;
}

type mc_report = {
  samples : mc_sample list;
  mean : float;
  stddev : float;  (** population standard deviation of [mc_final] *)
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
  state:string ->
  unit ->
  mc_report
(** Seeded Monte Carlo over [(class, parameter, distribution)] specs:
    [samples] parameter sets are drawn deterministically (fixed draw
    order — per sample, then per spec — from [Random.State.make
    [|seed|]]), integrated as one ensemble, and summarised by the final
    value of [state].  The same seed yields the same draws, and
    therefore the same report, on every run.
    @raise Om_lang.Override.Unknown_target on a bad spec target.
    @raise Om_lang.Override.Shadowed on a spec no value would reach, as
    {!run}.
    @raise Invalid_argument on [samples < 1], an empty spec list,
    [domains < 1] or a state the model does not have. *)

val to_series : string -> int -> point list -> Om_viz.Plot.series
(** [to_series label i points]: the (value, [finals.(i)]) series. *)
