(** Differential fuzzing driver: generate, check, shrink, dump.

    Each case [i] draws a model from
    [Random.State.make [| seed; i |]] — fully reproducible from the
    [(seed, index)] pair — and runs the {!Oracle} on it.  Failing cases
    are shrunk with {!Shrink.shrink} at its default budget (predicate:
    the same invariant still fails) and, when [out_dir] is given, dumped as
    [caseNNNN-original.om], [caseNNNN-shrunk.om] and
    [caseNNNN-report.txt] counterexample files. *)

type failure = {
  index : int;  (** case index; regenerate with [make [| seed; index |]] *)
  violations : Oracle.violation list;  (** on the original model *)
  original : Om_lang.Ast.model;
  shrunk : Om_lang.Ast.model;
  shrunk_violations : Oracle.violation list;
}

type summary = {
  cases : int;
  discarded : int;  (** trajectory matrix skipped (non-finite reference) *)
  split : int;  (** cases whose split-plan strategies split an equation *)
  lsoda_sequential_only : int;
      (** cases whose long LSODA reference skipped the 2-domain run *)
  sweep_refused : int;
      (** cases whose swept parameter every use of its class rebinds *)
  dim_total : int;  (** summed flat dimensions, for mean-size reporting *)
  task_total : int;
  failures : failure list;
}

val run :
  ?out_dir:string ->
  ?check:(Om_lang.Ast.model -> Oracle.result) ->
  ?chaos:bool ->
  ?log:(string -> unit) ->
  cases:int ->
  seed:int ->
  unit ->
  summary
(** [check] defaults to {!Oracle.check} (tests inject stubs);
    [log] receives one line per noteworthy event.

    With [~chaos:true] (default false) each case additionally injects
    one seeded fault (derived from the [(seed, index)] pair) into a
    2-domain run and demands bitwise recovery — see {!Oracle.check}.
    Chaos failures are never shrunk: the fault plan's (round, task)
    coordinates do not survive model reduction, so [shrunk] is the
    original model. *)

val pp_summary : summary Fmt.t
