(** Equations to assignments.

    Paper §3.1: "Various transformations are done, including removing the
    derivatives and replacing the equations by assignments, where the
    right-hand sides are the right-hand sides from the equations."  Each
    first-order ODE [x'(t) = rhs] becomes the assignment
    [x$dot := rhs]. *)

type t = {
  state : string;  (** the differentiated state variable *)
  target : string;  (** the derivative variable, [state ^ "$dot"] *)
  state_index : int;  (** position in the model's state vector *)
  rhs : Om_expr.Expr.t;
}

val of_flat_model : Om_lang.Flat_model.t -> t array

val cost : t -> float
(** Mean-branch static flop estimate of the right-hand side. *)
