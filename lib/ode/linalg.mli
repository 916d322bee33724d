(** Dense linear algebra for the implicit ODE solvers.

    Matrices are row-major [float array array]; all operations allocate
    fresh results unless documented otherwise.  The implicit (BDF) solver
    factorises the Newton iteration matrix with partial-pivoting LU — the
    same structure as LINPACK's [dgefa]/[dgesl] used by ODEPACK. *)

type mat = float array array

val make : int -> int -> float -> mat

type lu
(** Packed LU factorisation with its pivot permutation. *)

exception Singular of int
(** Raised with the offending column when a pivot vanishes. *)

val lu_factor : mat -> lu
(** Factor a square matrix (the input is copied). @raise Singular *)

val lu_solve : lu -> float array -> float array

val norm2 : float array -> float
val wrms_norm : float array -> float array -> float
(** Weighted root-mean-square norm [sqrt(mean((v_i / w_i)^2))], the error
    norm used by ODEPACK-style controllers. *)
