(** Generated Jacobian code.

    Paper §3.2.1: "There is also a possibility for the user to provide the
    solver with an extra function that computes the Jacobian, instead of
    having the solver doing it internally (which is usually very
    expensive).  If the user can provide this function the computation
    time might be reduced drastically."

    This module derives the sparse Jacobian [df_i/dy_j] of a flat model
    symbolically, shares work across entries with CSE, and prints it as
    the Fortran 90 [JAC] subroutine; its entry count, density and flop
    cost feed {!Stats}.  The executable symbolic Jacobian the solvers run
    is {!Om_ode.Odesys.of_equations}'s. *)

type t = {
  dim : int;
  entries : (int * int * Om_expr.Expr.t) list;
      (** nonzero entries [(row, col, expr)]; row = equation, col = state *)
  block : Cse.block;
      (** CSE'd computation; root targets are ["j$<row>$<col>"] *)
}

val generate : Om_lang.Flat_model.t -> t
(** Differentiate every right-hand side with respect to every state it
    mentions; structurally-zero entries are dropped. *)

val nonzero_count : t -> int

val density : t -> float
(** Fraction of structurally nonzero entries. *)

val flops : t -> float
(** Mean-branch flop cost of one Jacobian evaluation through the CSE'd
    block (compare with [dim + 1] RHS evaluations for the numeric
    difference approximation). *)

val fortran : t -> state_names:string array -> model_name:string -> Fortran.source
(** A [subroutine JAC(t, yin, pd)] filling the dense matrix [pd]
    (column-major, the LSODA convention), zeros included once at the
    top. *)
