(** The hydroelectric power plant model (paper §2.5, Figure 3; based on
    Älvkarleby Kraftverk).

    Objects: a dam (surface level driven by inflow minus the total flow
    through the gates), [n] turbine gates each with its own local servo
    loop (gate angle, throttle actuator, and the integrator part of a local
    PI regulator — a small strongly connected component per gate), and a
    plant-wide regulator integrator reacting to the dam level.  The gate
    loops are mutually independent, the dam depends on every gate, and the
    regulator depends on the dam, so the SCC condensation is a shallow DAG
    that partitions well — the paper's positive example for
    equation-system-level parallelism. *)

val source : ?n_gates:int -> unit -> string
(** Defaults to the six gates of Figure 3. *)

val model : ?n_gates:int -> unit -> Om_lang.Flat_model.t

