(** Symbolic mathematical expressions.

    This is the term language shared by the whole ObjectMath reproduction:
    the modelling-language frontend elaborates into it, the code generator
    rewrites it, and the ODE solvers evaluate it.  The representation follows
    Mathematica's convention of n-ary [Plus]/[Times] with [Power] so that
    negation and division are derived forms; this keeps simplification and
    common-subexpression elimination canonical.

    Smart constructors ({!add}, {!mul}, ...) perform light normalisation:
    flattening of nested sums/products, constant folding, identity and
    absorbing-element elimination, and canonical argument ordering.  No
    deeper rewriting is done: identities such as [sin²x + cos²x = 1]
    change the rounded value of a model's right-hand side. *)

(** Primitive functions available in models.  [Atan2], [Min], [Max] and
    [Hypot] are binary; everything else is unary. *)
type func =
  | Sin
  | Cos
  | Tan
  | Asin
  | Acos
  | Atan
  | Sinh
  | Cosh
  | Tanh
  | Exp
  | Log
  | Sqrt
  | Abs
  | Sign
  | Atan2
  | Min
  | Max
  | Hypot

(** Comparison relations used in piecewise expressions. *)
type rel = Lt | Le | Gt | Ge

type t = private
  | Const of float
  | Var of string
  | Add of t list * int
      (** n-ary sum; invariant: >= 2 args, flattened, sorted *)
  | Mul of t list * int  (** n-ary product; same invariants as [Add] *)
  | Pow of t * t * int
  | Call of func * t list * int
  | If of cond * t * t * int
      (** [If (c, a, b, _)] evaluates [a] when [c] holds, else [b]. *)
(** The [int] of a compound node is its {!hash}, stored by the
    constructor that built it. *)

and cond = { lhs : t; rel : rel; rhs : t }

val equal : t -> t -> bool
(** [compare a b = 0]: [Float.compare] on constants, so [-0.] equals
    [0.] and NaN equals NaN.  Nodes whose stored hashes differ are
    unequal without a walk. *)

val compare : t -> t -> int
(** Total structural order ([Float.compare] on constants).  Physically
    equal operands compare [0] without a walk, so comparing terms that
    share subtrees costs no more than their unshared parts. *)

val hash : t -> int
(** Structural hash, consistent with {!equal}: a compound node's is
    stored in it, made in O(arity) from its children's when it is
    built, so [hash] does not walk; a leaf's is [Hashtbl.hash] of its
    payload. *)

val has_if : t -> bool
(** Whether an [If] occurs in the term, read from its stored hash (whose
    top bit says so) without a walk. *)

(** Maps keyed on physical identity ([==]), indexed by {!hash}: the
    memo of a walk that visits each node of a DAG once. *)
module Phys_tbl : sig
  type key := t
  type 'a t

  val create : int -> 'a t
  (** An empty map with room for [n] bindings before it grows. *)

  val find_opt : 'a t -> key -> 'a option

  val find_or : 'a t -> key -> 'a -> 'a
  (** [find_or m e d] is [e]'s value, or [d] if [m] binds none.  It
      allocates nothing, and on an empty map it compares one count. *)

  val add : 'a t -> key -> 'a -> unit
  (** [add m e v] binds [e] to [v] unless [m] binds [e] already. *)

  val visit : unit t -> key -> bool
  (** [visit s e] adds [e] to [s], a map used as a set of nodes (no
      value is stored, so [s] takes no [add]), and says whether [e] was
      not in [s] yet. *)
end

val intern : t array -> t array
(** [intern es] is [es] with every structurally equal subterm, across
    all of them, one physical node: the same trees, constants compared
    by their bits (so [-0.] and [0.], and NaN payloads, stay distinct).
    Passes that memoise on physical identity ({!Deriv.jacobian},
    {!Vm}'s lowering) then treat equal subterms of different terms as
    one.  A DAG walk: a node shared by several parents is visited
    once. *)

(** {1 Constructors} *)

val const : float -> t
val int : int -> t
val var : string -> t

val zero : t
val one : t
val minus_one : t

val add : t list -> t
(** Flattens nested sums, folds the constants left to right and
    collects like terms ([2x + 3x = 5x]), keyed by their non-constant
    factor lists: a stable sort on the key and an adjacent merge, no
    table per call.  Coefficients sum in occurrence order; each
    collected term keeps its first occurrence's factors. *)

val sub : t -> t -> t

val mul : t list -> t
(** As {!add}, for products: folds the constants (a zero product is
    [zero]) and collects powers by base ([x * x^2 = x^3]). *)

val is_product : t list -> bool
(** [is_product fs]: [mul fs] rebuilds [Mul fs], constants bit for bit
    — [fs] is the factor list of a product [mul] built. *)

val mul_into : t -> t list -> t
(** [mul_into x fs] is [mul (x :: fs)] for [fs] a sublist, in order, of
    an {!is_product} list: the same tree, constants bit for bit, with
    fresh nodes where [mul] makes them.  It merges [x]'s factor into
    [fs] instead of re-sorting them, and leaves to [mul] a constant or
    product [x], and an [x] whose base is one of [fs]'s. *)

val neg : t -> t
val div : t -> t -> t
val pow : t -> t -> t
val powi : t -> int -> t
val sqr : t -> t
val call : func -> t list -> t

val sin : t -> t
val cos : t -> t
val tan : t -> t
val exp : t -> t
val log : t -> t
val sqrt : t -> t
val sign : t -> t
val hypot : t -> t -> t

val if_ : cond -> t -> t -> t
val cond : t -> rel -> t -> cond

(** {1 Inspection} *)

val children : t -> t list
(** Immediate sub-expressions, including those inside conditions. *)

val map_children : (t -> t) -> t -> t
(** Rebuild a node with every immediate child transformed by [f]; smart
    constructors re-normalise the result. *)

val replace_children : t -> t list -> t
(** [replace_children e kids] is [e] with its immediate children, in
    {!children} order, replaced by [kids], rebuilt with the {e raw}
    constructors like {!map_exact}.  A leaf is returned as is.
    @raise Invalid_argument if [kids] has the wrong length for a [Pow]
    or an [If]. *)

val map_exact : (t -> t option) -> t -> t
(** [map_exact f e] replaces every subtree [s] (pre-order, outermost
    first) for which [f s = Some s'] by [s'], rebuilding the spine with
    the {e raw} constructors so operand order is preserved exactly.
    Unlike {!map_children}, no re-normalisation happens: the n-ary
    [Add]/[Mul] operand lists keep their order, so a left-to-right float
    fold over the result associates exactly as in the input — which
    bitwise-reproducibility passes (e.g. CSE temp extraction) depend on.
    The caller must ensure replacements keep the canonical form
    downstream consumers expect (e.g. no [Add] directly under [Add]). *)

val map_exact_children : (t -> t option) -> t -> t
(** Like {!map_exact} but never replaces the root node itself, only
    (transitively) its children — used to rewrite a definition of a
    subtree without collapsing it to its own name. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over every node of the expression tree. *)

val vars : t -> string list
(** Free variables, sorted, without duplicates.  A DAG walk: a node
    shared by several parents is visited once. *)

val size : t -> int

val func_name : func -> string
val func_arity : func -> int
val func_of_name : string -> func option
val rel_name : rel -> string

val eval_func : func -> float list -> float
(** Apply a primitive function to numeric arguments.
    @raise Invalid_argument on arity mismatch. *)

val eval_rel : rel -> float -> float -> bool

val eval_pow : float -> float -> float
(** The power semantics shared by {e every} evaluator in the repo — the
    tree-walking interpreter, the compiled closures, the scalar and
    batched register VMs, the dynamic cost model, and constant folding.  Integer
    exponents that the peephole pass strength-reduces get the same fast
    paths here ([b ** 2.] is [b *. b], [b ** -1.] is [1. /. b],
    [b ** 1.] is [b], [b ** 0.] is [1.]); everything else is
    [Float.pow].  libm's [pow] is not correctly rounded for all inputs,
    so routing each strategy through this one function is what makes
    optimised and unoptimised code bit-identical. *)

val pp : t Fmt.t
(** Infix rendering, suitable for reading; see {!Prefix_form} for the
    precise backend-oriented interchange printer. *)
