(** An environment layout: variable names in slot order, and the table
    that maps a name to its slot.

    One layout is built per compile and shared by every program compiled
    against it ({!Vm.compile_stmts}, {!Cost_dyn.build}), so resolving a
    name costs one table lookup however many programs there are.  If a
    name occurs more than once, its first slot wins. *)

type t

val of_names : string array -> t
(** O(the number of names). *)

val size : t -> int
(** The number of slots. *)

val slot : t -> string -> int
(** The first slot of a name.  @raise Eval.Unbound if it has none. *)
