(** Seeded generator of random well-typed ObjectMath models.

    Produces surface {!Om_lang.Ast.model} values that exercise every
    frontend construct — single inheritance with [extends ... with]
    parameter rebinding and equation overrides, composition through
    parts, instance arrays with [index]-dependent bindings, and
    cross-instance imports bound to earlier instances' state paths —
    while remaining well-typed by construction: every state variable has
    exactly one explicit ODE, every parameter reduces to a constant, and
    every free name is bound.

    Expression bodies come from a bounded, NaN-safe grammar (guarded
    divisions, shifted-square [log]/[sqrt] arguments, integer powers).
    Flat per-equation cost is not bounded: a split equation evaluates to
    the same bits as an unsplit one, so the cross-strategy trajectory
    oracle ({!Oracle.check}) holds for every plan. *)

val model : Random.State.t -> Om_lang.Ast.model
(** Draw one model.  Deterministic in the state: equal seeds give equal
    models. *)

val source : Random.State.t -> string
(** [Unparse.model (model rng)]. *)

val stiff_model : ?rate:float -> unit -> Om_lang.Ast.model
(** A two-state model with one fast mode (relaxation onto [cos t] at
    [rate], default 2000) and one slow mode — stiff once the transient
    decays, which drives LSODA's Adams→BDF mode switch. *)
