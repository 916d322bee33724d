(** Capture-free substitution of variables by expressions. *)

val apply_map : Expr.t Map.Make(String).t -> Expr.t -> Expr.t

val rename : (string -> string) -> Expr.t -> Expr.t
(** Rename every variable through [f]. *)
