(** Symbolic differentiation. *)

val diff : string -> Expr.t -> Expr.t
(** [diff v e] is the partial derivative de/dv.  Piecewise expressions are
    differentiated branch-wise (the condition is treated as constant), which
    matches the convention of equation-based modelling tools.  [Abs], [Sign],
    [Min] and [Max] are differentiated piecewise as well.  A tree walk:
    a subtree shared by several parents is differentiated once per
    parent. *)

val differentiator : string -> Expr.t -> Expr.t
(** [differentiator v] is a [diff v] that memoises on physical identity
    ([==]): each distinct node of the expression DAG is differentiated
    once, and every later call reuses the result — across all the
    expressions the function is applied to, so share one differentiator
    per variable over a whole equation system.  The results are
    {!Expr.equal} to [diff v]'s and share their common subtrees
    physically, which {!Vm}'s DAG-aware lowering turns into reused
    registers.  The memo keeps every differentiated node alive as long
    as the function is reachable. *)

val gradient : string list -> Expr.t -> (string * Expr.t) list
(** Partial derivative with respect to each given variable. *)
