(** Model overrides: programmatic editing of parsed models.

    The environment's "evaluation of numerical experiments" (paper §1.1)
    needs the same model re-elaborated under different parameter values —
    e.g. sweeping the external load on the bearing or the river inflow of
    the power plant ("the model can be used for verifying dam safety
    margins, for example", §2.5).  Overrides operate on the AST, before
    flattening, so every parameter dependency re-elaborates correctly. *)

exception Unknown_target of string

exception Structural of string
(** Raised by {!promote_parameter} when promoting would change the
    model's meaning (the parameter is rebound by a [with] binding). *)

val set_parameter :
  Ast.model -> cls:string -> param:string -> float -> Ast.model
(** Replace the default value of a class parameter.
    @raise Unknown_target if the class or parameter does not exist. *)

val set_instance_binding :
  Ast.model -> instance:string -> name:string -> Ast.sexpr -> Ast.model
(** Add or replace a [with] binding on an instance.
    @raise Unknown_target if the instance does not exist. *)

val promote_parameter : Ast.model -> cls:string -> param:string -> Ast.model
(** Turn a class parameter into a frozen state variable: the member
    becomes [Variable (param, default)] plus the equation
    [der(param) = 0].  After flattening, each instance of the class
    carries the parameter as a state slot whose value can be set per
    ensemble member without re-elaborating the model — the compile-once
    fast path of {!module:Sweep} (in the [objectmath] umbrella).
    Promotion refuses ([Structural]) when any [with] binding (extends,
    part, or instance) rebinds the parameter, because binding a variable
    does not mean the same thing; callers fall back to per-value
    overrides.  Models whose initial values or other parameters depend
    on the promoted parameter fail later, in {!Flatten.flatten} (a
    promoted parameter no longer reduces to a constant) — callers
    should treat that the same way.
    @raise Unknown_target if the class or parameter does not exist.
    @raise Structural on a rebinding conflict. *)

exception Shadowed of string
(** Raised by {!flatten_with} when an override would change nothing:
    the model uses the class only through instances, and each of them
    rebinds the parameter with a [with] binding.  The payload names
    those instances. *)

val flatten_with :
  source:string -> overrides:(string * string * float) list ->
  Flat_model.t
(** Parse [source], apply [(class, parameter, value)] overrides, flatten.
    @raise Unknown_target / [Shadowed] / [Flatten.Error] /
    [Parser.Error]. *)
