(** Sparse Jacobians for the stiff Newton path.

    A compressed-sparse-row pattern drives three cooperating pieces:
    greedy distance-2 column {{!color_columns}coloring} so a
    finite-difference Jacobian costs one RHS evaluation per {e color}
    instead of per column (Curtis–Powell–Reid compression, the
    sparse-AD route of Peleš & Klus, arXiv 1505.00838); compressed
    assembly of either symbolic or colored-difference values into the
    CSR value array; and a left-looking (Gilbert–Peierls) sparse
    {{!lu_factor}LU} with partial pivoting.

    The LU is engineered to replay the dense {!Linalg.lu_factor}
    arithmetic operation-for-operation — updates apply in ascending
    pivot order, the pivot search reproduces the dense tie-breaking
    through a row-position permutation, and the triangular solves walk
    rows in the dense loop order — so a solver switched between the
    dense and sparse paths produces bitwise-identical trajectories
    (structural zeros are exact [+0.] in the dense path, making every
    skipped operation a bitwise no-op). *)

type pattern = {
  rows : int;
  cols : int;
  row_ptr : int array;  (** length [rows + 1] *)
  col_ind : int array;  (** ascending within each row *)
}
(** Structural nonzero positions in compressed sparse row form. *)

val pattern_of_entries : rows:int -> cols:int -> (int * int) list -> pattern
(** Build a pattern from [(row, col)] positions; duplicates are merged.
    @raise Invalid_argument on out-of-range positions. *)

val nnz : pattern -> int

val density : pattern -> float
(** [nnz / (rows * cols)], 0 for empty shapes. *)

val mem : pattern -> int -> int -> bool
val index : pattern -> int -> int -> int
(** CSR slot of [(i, j)], or [-1] when the position is structural
    zero. *)

type t = { pat : pattern; v : float array }
(** A matrix: values parallel to [pat.col_ind]. *)

val create : pattern -> t
(** All-zero values. *)

val of_dense : ?tol:float -> Linalg.mat -> t
val to_dense : t -> Linalg.mat

type coloring = {
  ncolors : int;
  color : int array;  (** color of each column, in [0 .. ncolors-1] *)
  groups : int array array;  (** columns of each color, ascending *)
}

val color_columns : pattern -> coloring
(** Greedy distance-2 coloring in natural column order: two columns
    sharing a row never share a color, so all columns of one color can
    be perturbed in a single RHS evaluation.  On a banded pattern with
    [ml + mu + 1] diagonals this uses at most [ml + mu + 1] colors. *)

(** {1 Colored finite differences} *)

type fd_ws
(** Workspace for one system: per-group perturbed points and RHS
    values, plus per-column steps.  Reusable across evaluations. *)

val make_fd_ws : pattern -> coloring -> fd_ws
val fd_groups : fd_ws -> int

val fd_prepare : ?eps:float -> fd_ws -> y:float array -> unit
(** Fill the perturbed points: group [g] is [y] with every column of
    color [g] bumped by the {!Jacobian.numeric} step rule
    [eps * max 1 |y_j|]. *)

val fd_points : fd_ws -> float array array
(** The perturbed states, one per group; evaluate the RHS at each and
    write the results into {!fd_values}. *)

val fd_values : fd_ws -> float array array

val fd_scatter : fd_ws -> f0:float array -> jac:t -> unit
(** Decompress: every structural entry [(i, j)] becomes
    [(f_pert.(color j).(i) - f0.(i)) / h_j].  Because the coloring is
    distance-2, row [i] reads at most one perturbed column per group,
    so each entry is bitwise the single-column forward difference of
    {!Jacobian.numeric}.
    @raise Invalid_argument if [jac] was not built on the workspace's
    pattern. *)

(** {1 Sparse LU} *)

type lu

val lu_factor : t -> lu
(** Left-looking factorisation with partial pivoting, numerically
    identical to {!Linalg.lu_factor} (see the module preamble).  It
    keeps the natural row and column order: any fill-reducing
    reordering would change the rounding and break that equality.
    @raise Linalg.Singular with the same pivot-step index as the dense
    code when a pivot column is exactly zero. *)

val lu_solve : lu -> float array -> float array
(** Bitwise-identical to {!Linalg.lu_solve} on the corresponding dense
    factorisation. *)

(** {1 Newton iteration matrix} *)

type newton
(** Workspace for [M = alpha*I - beta*J]: the merged pattern (J plus
    the full diagonal), a scatter map from J slots to M slots, and the
    M value array, all built once per integration. *)

val make_newton : pattern -> newton
val newton_matrix : newton -> t

val newton_assemble : newton -> jac:t -> alpha:float -> beta:float -> unit
(** Refill M from the current J values; bitwise equal to the dense
    [(if i=k then alpha else 0.) -. beta *. j.(i).(k)] construction on
    every structural entry. *)
