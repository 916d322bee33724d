(** Type derivation and the typed intermediate form.

    The reproduction's type system matches the paper's effective one for
    generated numerical code: every value is Real ([om$Type[_, om$Real]]),
    so "type checking" amounts to arity/shape validation (performed during
    flattening) plus annotation of the intermediate representation.  The
    annotated Mathematica-full-form listing produced here is the artifact
    whose size §3.3 reports (11 859 lines for the 2D bearing). *)

val intermediate_form : ?width:int -> Flat_model.t -> string list
(** The complete type-annotated prefix-form listing of the model: one
    [Equal[Derivative[1][x][t], rhs]] block per equation (wrapped at
    [width] columns, default 72) plus the enclosing list structure. *)

val intermediate_line_count : Flat_model.t -> int

val check : Flat_model.t -> unit
(** Re-validate a flat model: equation/state bijection, distinct state
    names and closed right-hand sides.  @raise Invalid_argument on violations (used by
    property tests; [Flatten.flatten] output always passes). *)

val check_reads : Flat_model.t -> string list list
(** {!check}, returning each equation's read set: the variables of its
    right-hand side ({!Om_expr.Expr.vars}), as the free-variable check
    walks them, in equation order.  A compiled model derives its
    sparsity pattern from these, so the equations are walked once. *)
