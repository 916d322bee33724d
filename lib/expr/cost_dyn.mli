(** Dynamic (branch-resolved) cost measurement.

    The semi-dynamic scheduler (paper §3.2.3) needs the {e actual} cost of
    each task in the iteration just executed: conditional right-hand sides
    make the static estimate wrong.  This module compiles an expression to
    a closure that evaluates it while accumulating the flop cost of the
    branches actually taken. *)

val build :
  ?weights:Cost.weights ->
  Layout.t ->
  Expr.t ->
  float array -> float ref -> float
(** [build layout e] returns [fun env acc -> value]: evaluates [e]
    against [env] (laid out like [layout]) and adds the exercised flop
    cost to [acc].  @raise Eval.Unbound at build time for unknown
    variables. *)
