(** Symbolic differentiation. *)

val diff : string -> Expr.t -> Expr.t
(** [diff v e] is the partial derivative de/dv.  Piecewise expressions are
    differentiated branch-wise (the condition is treated as constant), which
    matches the convention of equation-based modelling tools.  [Abs], [Sign],
    [Min] and [Max] are differentiated piecewise as well.  A tree walk:
    a subtree shared by several parents is differentiated once per
    parent. *)

val jacobian : string array -> Expr.t array -> (int * Expr.t) array array
(** [jacobian vars rows] is the sparse Jacobian of [rows] with respect
    to [vars], in one forward pass over the expression DAG: row [i]
    lists [(j, d)] pairs, [j] ascending, with [d] {!Expr.equal} to
    [diff vars.(j) rows.(i)].  Every column missing from row [i] has
    [diff] equal to [Const 0.] (positive zero).

    Each distinct node (by physical identity, across all rows) is
    visited once for all variables: its derivatives cover only the
    columns its differentiated children carry — for an [If], the two
    arms, never the condition — so a row lists exactly the columns its
    differentiated subterms read.  The exception is a row whose
    derivative with respect to a variable it does not read is not
    [+0.]: a non-finite constant (or constant arithmetic that
    overflows) makes [0 * c] a NaN, as [diff] does, and then the row
    lists every column.  Results share their common subtrees
    physically, which {!Vm}'s DAG-aware lowering turns into reused
    registers: the parts of a node's derivative no column changes (the
    outer derivative of a call, [b^(n-1)], a reciprocal denominator,
    the product rule's other factors) are built once per node and read
    by every column.
    @raise Invalid_argument if [vars] has a duplicate. *)
