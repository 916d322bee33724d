(* One value per kind of reference; the expected report is
   tools/reach/fixture.expected. *)

val via_umbrella : unit -> unit
val via_module_alias : unit -> unit
val via_let_module : unit -> unit
val via_open : unit -> unit
val only_test : unit -> unit
val own_use : unit -> unit
val unnamed : unit -> unit

module Nested : sig
  val via_nested : unit -> unit
end
