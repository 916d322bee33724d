(** Explicit first-order ODE systems [y'(t) = f(t, y)].

    This is the object handed to every solver; paper §2.4 calls [f] the RHS
    function and makes it the sole target of parallelisation.  Systems can
    be built from OCaml closures or elaborated from symbolic equations,
    whose right-hand sides and Jacobian then run as register-VM
    programs. *)

type counters = {
  mutable rhs_calls : int;
  mutable jac_calls : int;
  mutable steps : int;
  mutable rejected : int;
  mutable newton_iters : int;
  mutable lu_factorisations : int;
  mutable retries : int;
      (** solver step retries after a guarded runtime fault
          ({!Om_guard.Om_error.t}), counted by the backoff loops in
          [Rk] and [Lsoda] *)
}

type jac_mode = Dense | Sparse | Auto
(** How the stiff solvers evaluate and factor the Newton matrix.
    [Dense] is the classic full-matrix path; [Sparse] uses the system's
    sparsity pattern with colored compressed columns and the sparse LU
    of {!Sparse}; [Auto] (every solver's default) picks [Sparse] when a
    pattern is known, the dimension is large enough, and the density is
    low enough to pay off, else [Dense].  Dense and sparse produce
    bitwise-identical trajectories (see {!Sparse}). *)

type t = {
  dim : int;
  names : string array;  (** state variable names, length [dim] *)
  f : float -> float array -> float array -> unit;
      (** [f t y ydot] writes the derivatives into [ydot]. *)
  jac : (float -> float array -> Linalg.mat -> unit) option;
      (** Optional analytic Jacobian df/dy, written in place. *)
  mutable sparsity : Sparse.pattern option;
      (** Structural nonzeros of df/dy — the RHS read sets, a superset
          of the nonzero-derivative positions.  Enables the sparse
          Newton path. *)
  mutable sjac : (float -> float array -> float array -> unit) option;
      (** Optional analytic sparse Jacobian: [sjac t y v] writes the
          values of every structural entry into [v] in the CSR order of
          [sparsity]. *)
  counters : counters;
}

val reset_counters : t -> unit

val pp_counters : counters Fmt.t
(** One-line rendering:
    [steps=.. rhs=.. jac=.. rejected=.. newton=.. lu=.. retries=..]. *)

val make :
  ?names:string array ->
  ?jac:(float -> float array -> Linalg.mat -> unit) ->
  ?sparsity:Sparse.pattern ->
  ?sjac:(float -> float array -> float array -> unit) ->
  dim:int ->
  (float -> float array -> float array -> unit) ->
  t
(** @raise Invalid_argument when [names] or [sparsity] shapes disagree
    with [dim], or when [sjac] comes without the [sparsity] that fixes
    its value order. *)

val rhs : t -> float -> float array -> float array
(** Allocating wrapper around [f] that bumps the call counter. *)

val rhs_into : t -> float -> float array -> float array -> unit
(** Non-allocating [f] call that bumps the call counter. *)

val pattern_of_equations : (string * Om_expr.Expr.t) list -> Sparse.pattern
(** The read-set sparsity pattern of symbolic equations: entry [(i, j)]
    is structural iff equation [i]'s right-hand side mentions state [j].
    A superset of the nonzero-derivative positions, safe for colored
    finite differences — useful for attaching a pattern to a system
    whose RHS is compiled separately (e.g. the runtime's task-parallel
    evaluator) but whose equations are known. *)

val pattern_of_reads : string array -> string list list -> Sparse.pattern
(** {!pattern_of_equations} from read sets already walked: entry
    [(i, j)] is structural iff the [i]th list names state [j] (names not
    among the states, such as time, are skipped). *)

val jacobian_stmts :
  Sparse.pattern -> (string * Om_expr.Expr.t) list ->
  (Om_expr.Expr.t * Om_expr.Vm.target) list
(** The statements {!jacobian_program} lowers, given
    [pattern_of_equations eqs]: each structural entry's derivative,
    stored to its CSR slot.  The equations are interned
    ({!Om_expr.Expr.intern}) before {!Om_expr.Deriv.jacobian} derives
    them, so derivatives share each distinct subterm physically. *)

(** {2 The programs}

    The one builder of the programs that evaluate symbolic equations:
    {!of_equations} runs them, and so does every sequential path of the
    code generator ([Om_codegen.Pipeline]), which lowers them through
    these two functions and nowhere else.  Both read one value layout:
    the states in equation order, then time, ["t"].  [optimize]
    (default [true]) is {!Om_expr.Vm.compile_stmts}' peephole
    switch. *)

val rhs_program :
  ?optimize:bool -> (string * Om_expr.Expr.t) list ->
  Om_expr.Vm.program
(** The right-hand sides lowered as one DAG, equation [i] stored to
    output [i].
    @raise Om_expr.Eval.Unbound on a variable that is neither a state
    nor time. *)

val jacobian_program :
  ?optimize:bool -> Sparse.pattern ->
  (string * Om_expr.Expr.t) list -> Om_expr.Vm.program
(** The symbolic Jacobian, given [pattern_of_equations eqs]: one program
    writing every structural entry's derivative to its CSR slot
    ({!jacobian_stmts}), from one forward pass of
    {!Om_expr.Deriv.jacobian} over all the equations.  A structural
    entry the pass leaves out is [+0.]. *)

val symbolic_jacobian :
  dim:int -> Sparse.pattern -> (unit -> Om_expr.Vm.program) ->
  (float -> float array -> Linalg.mat -> unit)
  * (float -> float array -> float array -> unit)
(** [symbolic_jacobian ~dim pattern program] is the [(jac, sjac)] pair
    of a system whose symbolic Jacobian is [program ()], a
    {!jacobian_program} over [pattern] reading states and then time.
    [program] is called on the first [jac] or [sjac] call, not before,
    so runs that never ask for a Jacobian never build it.  [sjac] writes
    the program's outputs, the CSR values; [jac] scatters them into the
    dense matrix, zero elsewhere.  The pair owns one value vector and
    whatever [program] returns (give it a register file of its own, such
    as a {!Om_expr.Vm.clone_scratch}): use it from one domain at a time.
    {!of_equations} and [Om_codegen.Pipeline.system] both attach it. *)

val of_equations :
  ?with_symbolic_jacobian:bool ->
  (string * Om_expr.Expr.t) list ->
  t
(** Elaborate symbolic first-order equations [x' = rhs].  Each right-hand
    side may reference any state variable and the time variable ["t"].
    [f] runs {!rhs_program}.  With [with_symbolic_jacobian]
    (default true) the analytic Jacobian is derived symbolically too,
    the paper's "extra function dedicated to computing the Jacobian":
    {!jacobian_program} backs both [jac] and [sjac]
    ({!symbolic_jacobian}).  It is built on the first [jac] or [sjac]
    call, so runs that never ask for a Jacobian never differentiate.  The structural sparsity pattern
    (each equation's state read set) is always recorded in
    [sparsity].

    Results equal {!Om_expr.Eval.eval} of the equations (and of
    {!Om_expr.Deriv.diff} per entry) up to the sign of zero.  The system
    owns one scratch environment and the programs' register files, and
    the Jacobian is built lazily: use it from one domain at a time.
    @raise Invalid_argument on duplicate states or free variables that are
    neither states nor time. *)

type trajectory = {
  ts : float array;
  states : float array array;  (** [states.(k)] is the state at [ts.(k)] *)
}

val final_state : trajectory -> float array

val column : trajectory -> string -> t -> float array
(** Time series of one named state variable. *)

val sample : trajectory -> times:float array -> float array array
(** Linear interpolation of the trajectory at the given (ascending) query
    times; endpoints clamp.  Used for plotting and for comparing
    trajectories computed on different step sequences.
    @raise Invalid_argument on an empty trajectory. *)
