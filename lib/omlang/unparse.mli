(** Unparser: abstract syntax back to concrete model text.

    The ObjectMath 4.0 architecture (paper Figure 8) contains a
    "Mathematica Unparser" box between the transformer and the code
    generator; this is its counterpart for the reproduction's surface
    syntax.  [Parser.parse_model (model m)] reproduces [m] up to position
    information, which the round-trip property tests verify. *)

val sexpr : Ast.sexpr -> string
val model : Ast.model -> string

val flat_model : Flat_model.t -> string
(** Render a flattened model as a single-class model whose instance names
    are encoded into the variable names (dots become underscores), so that
    flattening output can itself be saved, inspected and re-flattened. *)

val flat_name : string -> string
(** The name mangling {!flat_model} applies to qualified state names
    ([.], [\[], [\]] and [,] become [_]) — exposed so the fuzz oracle
    can predict the variable names a re-flattened flat model gets. *)
