(** Elaboration of a parsed model into a flat ODE system.

    The stages mirror the ObjectMath compiler (paper §3.1): inheritance is
    resolved by member merging with parameter rebinding; composition
    ([part]) and instance arrays are expanded with dotted/indexed name
    prefixes; parameters and algebraic aliases are substituted away in
    dependency order; and the remaining equations are checked to form an
    explicit first-order ODE system over the state variables. *)

exception Error of string
(** Raised on semantic errors (unknown classes or names, inheritance
    cycles, algebraic loops among aliases, duplicate or missing equations,
    non-constant initial values). *)

val flatten : Ast.model -> Flat_model.t
(** An initial value that reads a promoted parameter's frozen state
    ({!Override.promote_parameter}) reduces at the parameter's
    default. *)

type promoted = {
  flat : Flat_model.t;  (** as {!flatten} gives it *)
  inits : (string * Om_expr.Expr.t) list;
      (** each state, frozen states aside, whose initial value reads a
          frozen state: that value as an expression over frozen
          states *)
  reached : string list;
      (** the frozen states that a parameter takes as its value: those
          of the instances where no binding replaced the default *)
}

val flatten_promoted : Ast.model -> promoted
(** {!flatten} for a model with promoted parameters, plus what an
    ensemble needs to give each member its own parameter values. *)

val flatten_string : string -> Flat_model.t
(** Parse then flatten.  @raise Error / [Parser.Error] / [Lexer.Error]. *)
