(** Synthetic "3D-class" bearing generator.

    The paper's industrial 3D bearing models (SKF) are proprietary; their
    relevant property for the performance experiments is a configurable
    number of rolling elements with right-hand sides heavy enough that "a
    potential speedup of 100-300 will be possible for large bearing
    problems" (§6).  This generator reproduces that regime: the 2D bearing
    structure with more rollers and a higher-order raceway-profile series
    inside each contact, scaling the per-roller cost the way 3D contact
    geometry does. *)

val source : ?n_rollers:int -> ?profile_order:int -> unit -> string
(** Defaults: 30 rollers, profile order 40. *)

val model :
  ?n_rollers:int -> ?profile_order:int -> unit -> Om_lang.Flat_model.t

