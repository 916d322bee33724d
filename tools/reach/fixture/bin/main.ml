module T = Fx_core.Target

let () =
  Fx_umbrella.Target.via_umbrella ();
  T.via_module_alias ();
  (let module L = Fx_core.Target in
   L.via_let_module ());
  let open Fx_core in
  Target.via_open ();
  T.Nested.via_nested ()
