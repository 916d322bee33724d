(** Fortran 90 code generation (paper Figure 11).

    The parallel form is one SPMD subroutine [RHS(workerid, yin, yout)]
    whose body is a [select case (workerid)] over the scheduled tasks; each
    case loads the state entries the task reads into named local variables,
    evaluates the task's temporaries and outputs, and stores the results
    into [yout].  "The unnecessary assignments in the generated code will
    be removed by the Fortran compiler by means of optimizations based on
    data flow analysis" — we generate the same redundant load/store style.

    The serial form is a straight-line [RHS(t, yin, yout)] with global CSE.
    Support routines for start values are emitted alongside, as §3.2
    describes. *)

type source = {
  code : string;
  total_lines : int;
  declaration_lines : int;
  statement_lines : int;
  cse_count : int;
}

type mode = Parallel | Serial

val generate :
  mode:mode ->
  Partition.plan ->
  state_names:string array ->
  initial:float array ->
  model_name:string ->
  source

val mangle : string -> string
(** Flattened model names to Fortran identifiers:
    [W[3].phi -> W_3__phi]; injective over the model's name set by
    construction (brackets and dots map to distinct sequences). *)

val expr_to_fortran : (string -> string) -> Om_expr.Expr.t -> string
(** Render an expression with the given variable renderer. *)

val gather_names :
  Partition.plan ->
  state_names:string array ->
  (string -> int -> string) ->
  string ->
  string
(** How [gather_epilogue] names a residual's variables: states and time
    as elements of [yin], partials as elements of [yout], rendered by
    [elem array i] (0-based). *)
