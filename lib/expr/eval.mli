(** Direct numeric evaluation of expressions: the reference oracle.

    Every compiled evaluator ({!Vm}, {!Vm_batch} and the generated code
    built on them) is tested against {!eval}; no hot path runs it. *)

exception Unbound of string
(** Raised when evaluation meets a variable absent from the environment. *)

type env = (string, float) Hashtbl.t

val env_of_list : (string * float) list -> env

val eval : env -> Expr.t -> float
(** Tree-walking evaluation.  [If] nodes evaluate only the taken branch.
    @raise Unbound for free variables not in [env]. *)
