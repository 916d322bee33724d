let () =
  Fx_core.Target.only_test ();
  Fx_core.Target.via_umbrella ()
