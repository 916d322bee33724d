(** Allocation-free finite check over an RHS output vector.

    One NaN produced by one task would otherwise flow silently through
    the epilogue into the solver's error estimator and poison
    the whole trajectory (LSODA's weighted-RMS norm turns NaN into a
    NaN step size).  The guard scans the derivative vector after every
    round — a subtraction and a compare per slot, no allocation — and
    raises a typed {!Om_error.Nonfinite_output} attributing the first
    offending slot to its flattened equation name, which the solvers
    catch and answer with step-size backoff. *)

type t

val create : names:string array -> dim:int -> t
(** [names.(i)] is the flattened state name of slot [i] (only the first
    [dim] entries are consulted).
    @raise Invalid_argument if [names] is shorter than [dim]. *)

val dim : t -> int

val check : t -> time:float -> float array -> unit
(** Scan the first [dim] slots; allocation-free when all are finite.
    @raise Om_error.Error ([Nonfinite_output]) on the first bad slot. *)
