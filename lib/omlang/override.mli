(** Model overrides: programmatic editing of parsed models.

    The environment's "evaluation of numerical experiments" (paper §1.1)
    runs one model under many parameter values — e.g. sweeping the
    external load on the bearing or the river inflow of the power plant
    ("the model can be used for verifying dam safety margins, for
    example", §2.5).  {!promote_parameter} makes a class parameter's
    value a per-member state slot, so that the model compiles once and
    every value runs as one member of an ensemble; the model keeps its
    meaning, because every [with] binding still rebinds the parameter. *)

exception Unknown_target of string

exception Shadowed of string
(** A promoted parameter's value would reach nothing: every use of the
    class rebinds the parameter (see {!shadowed}).  The payload names
    the rebinding sites. *)

val set_parameter :
  Ast.model -> cls:string -> param:string -> float -> Ast.model
(** Replace the default value of a class parameter with a number.
    @raise Unknown_target if the class or parameter does not exist. *)

val promote_parameter : Ast.model -> cls:string -> param:string -> Ast.model
(** Give a class parameter's default a frozen state: [parameter k = d]
    becomes [variable k' init d; parameter k = k'] at the parameter's
    member position, plus [der(k') = 0].  [k] stays a parameter, so
    extends, part and instance bindings rebind it as in the unpromoted
    model, and every other use reads the frozen state, whose value an
    ensemble sets per member.  The state's name ({!frozen}) is one the
    lexer cannot produce, and it sorts where the parameter's name does,
    so a promoted model's terms keep their canonical order.
    @raise Unknown_target if the class or parameter does not exist. *)

val frozen : cls:string -> param:string -> string
(** The local name of the frozen state {!promote_parameter} declares
    for [cls.param]: [param ^ "'" ^ cls]. *)

val is_frozen : string -> bool
(** Whether a (qualified) state name is a promoted parameter's frozen
    state. *)

val shadowed : Ast.model -> cls:string -> param:string -> exn
(** The [Shadowed] refusal for [cls.param], naming every site that
    replaces the class default: an [extends] binding or a member of the
    same name in a subclass, and a [with] binding on a part or an
    instance of the class or a subclass.  With no such site the payload
    says the class is not instantiated. *)
