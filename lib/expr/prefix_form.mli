(** Mathematica-style FullForm ("prefix form") of expressions.

    The paper's code generator receives the model as "a list of abstract
    syntax trees, compatible with Mathematica's full form internal
    representation", with sub-expressions annotated by type information
    ([om$Type[x, om$Real]], Figure 11).  This module renders and parses that
    interchange format; the §3.3 intermediate-code line counts are computed
    over it. *)

val to_string : ?annotate:bool -> Expr.t -> string
(** One-line FullForm, e.g. [Plus[x, Times[-1, y]]].  With
    [~annotate:true] every variable is wrapped as [om$Type[v, om$Real]]. *)

val to_lines : ?annotate:bool -> ?width:int -> Expr.t -> string list
(** FullForm wrapped at argument boundaries to at most [width] columns
    (default 72), the way the ObjectMath compiler listed intermediate
    code. *)

val of_string : string -> Expr.t
(** Parse FullForm back, accepting [om$Type] annotations (they elaborate to
    plain variables).  @raise Failure on syntax errors. *)
