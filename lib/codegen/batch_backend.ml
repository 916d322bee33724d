(* Batched execution of a compiled bytecode backend: the sequential
   program reinterpreted over structure-of-arrays lanes by
   {!Om_expr.Vm_batch}.  Per lane the semantics are exactly
   {!Bytecode_backend.rhs_fn} — set state, run the sequential program,
   copy the derivatives out. *)

module Bb = Bytecode_backend
module Vb = Om_expr.Vm_batch

type t = {
  dim : int;
  width : int;
  env : float array array;
      (* env_size x width: states, t, CSE temps, partials *)
  out : float array array; (* dim x width *)
  program : Vb.t;
}

let of_program p ~dim ~width =
  if width < 1 then invalid_arg "Batch_backend.create: width < 1";
  let env_size = max (dim + 1) (Om_expr.Vm.raw p).rw_env_size in
  {
    dim;
    width;
    env = Array.init env_size (fun _ -> Array.make width 0.);
    out = Array.init dim (fun _ -> Array.make width 0.);
    program = Vb.create ~width p;
  }

let create (c : Bb.t) ~width = of_program (c.sequential ()) ~dim:c.dim ~width

let brhs t ~times ~y ~ydot ~lo ~hi =
  let n = hi - lo in
  for i = 0 to t.dim - 1 do
    Array.blit y.(i) lo t.env.(i) lo n
  done;
  Array.blit times lo t.env.(t.dim) lo n;
  Vb.exec t.program ~env:t.env ~out:t.out ~lo ~hi;
  for i = 0 to t.dim - 1 do
    Array.blit t.out.(i) lo ydot.(i) lo n
  done
