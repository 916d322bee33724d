(** The 2D cylindrical rolling bearing model (paper §2.5, Figures 4–6).

    An outer ring fixed in the housing, an inner ring driven at constant
    angular velocity and carrying an external load, and [n] rolling
    elements riding between the raceways on Hertzian-style unilateral
    contacts with a raceway-waviness (harmonic profile) correction.  Every
    roller couples to the inner ring through the contact force sums, so
    the dependency graph has one large strongly connected component
    holding all the computation plus one trivial component (the driven
    rotation angle) — the structure of the paper's Figure 6.

    The contact conditionals (rollers on the unloaded side lose contact)
    make right-hand-side costs vary over time, which is what the
    semi-dynamic LPT experiment needs.  The default profile order is
    calibrated so the model's generated-code weight matches the paper's
    2D bearing. *)

val source : ?n_rollers:int -> unit -> string
(** ObjectMath source text of the model (defaults to the paper's ten
    rolling elements). *)

val model : ?n_rollers:int -> unit -> Om_lang.Flat_model.t
(** Parsed and flattened. *)

val default_profile_order : int

val generate :
  model_name:string -> n_rollers:int -> profile_order:int -> string
(** The parametric generator shared with {!Bearing_scaled}. *)
