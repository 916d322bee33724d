(** The trivial servo example (paper §6 mentions it as the third small
    application, which "could be reasonably parallelized through such
    partitioning").

    A two-axis positioning servo.  Each axis is a composite of parts — a
    PI speed controller in closed loop with a DC motor (one SCC per axis),
    a compliant load shaft driven feed-forward (a second SCC), and a
    measurement filter — and the two independent axes are an instance
    array, so the model partitions into two parallel SCC chains. *)

val source : unit -> string
val model : unit -> Om_lang.Flat_model.t
