module Target = Fx_core.Target
