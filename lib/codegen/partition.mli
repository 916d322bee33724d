(** Task partitioning.

    Paper §3.2: "The parallelization stage of the code generator groups all
    small assignments into one task and splits large assignments obtained
    from the equations into several tasks."

    - Grouping: assignments cheaper than [merge_threshold] are packed
      greedily into tasks of about that size.
    - Splitting, by hoisting: an assignment costlier than
      [split_threshold] hands subtrees — the terms of its sum, of its one
      sum factor or of a unilateral [If]'s arm, split further while they
      exceed half the threshold and their terms carry most of their
      cost — to worker tasks, each into its own {e partial}.  The
      supervisor then evaluates the {e residual}: the original tree with
      each subtree replaced by a read of its partial, so the same
      operations in the same order, to the same bits.  A subtree hoisted
      out of an [If] arm is computed even when the arm is not taken.

    Output slots: [0 .. dim-1] are derivatives, [dim + k] is partial
    [k], which residuals read as the variable {!partial_name}[ k]. *)

type task = {
  tid : int;
  label : string;
  roots : (int * Om_expr.Expr.t) list;
      (** (output slot, expression) computed by this task *)
}

type plan = {
  dim : int;  (** state-vector dimension *)
  rhs : Om_expr.Expr.t array;
      (** the unsplit right-hand sides by derivative slot: what the
          sequential program computes *)
  n_partials : int;
  tasks : task array;
  epilogue : (int * Om_expr.Expr.t) list;  (** [(deriv, residual)] *)
  epilogue_flops : float;  (** the residuals' cost *)
}

val partition :
  ?merge_threshold:float ->
  ?split_threshold:float ->
  Assignments.t array ->
  plan
(** Defaults: [merge_threshold = 50.], [split_threshold = 4000.] flop
    units.  Every derivative is produced exactly once (directly or via the
    epilogue). *)

val n_slots : plan -> int
(** [dim + n_partials]. *)

val partial_name : int -> string
(** The variable a residual reads partial [k] as. *)

val validate : plan -> unit
(** @raise Invalid_argument if a slot is written twice or never, a
    derivative is both direct and via the epilogue, or [rhs] is not
    [dim] long. *)
