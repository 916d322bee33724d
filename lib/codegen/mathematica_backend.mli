(** Mathematica code generation.

    The ObjectMath 3.0 pipeline (paper Figure 8) contained a "Mathematica
    Code Generator" whose output was executed by Mathematica itself; 4.0
    kept emitting Mathematica code for symbolic evaluation via MathLink.
    This backend renders a flat model as a ready-to-run Mathematica
    program: the equation list, initial conditions, and an [NDSolve]
    driver. *)

type source = {
  code : string;
  total_lines : int;
}

val generate : Om_lang.Flat_model.t -> source

val mangle : Om_lang.Flat_model.t -> string -> string
(** Collision-free mapping of flattened state names ([W[3].Fi]) to
    Mathematica symbols ([W3Fi]). *)
