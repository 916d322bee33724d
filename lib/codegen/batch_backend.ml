(* Batched execution of a compiled bytecode backend: the same task and
   epilogue register programs, reinterpreted over structure-of-arrays
   lanes by {!Om_expr.Vm_batch}.  Per lane the semantics are exactly
   {!Bytecode_backend.rhs_fn} — set state, run every task in order, run
   the epilogue, copy the derivative slots out. *)

module Bb = Bytecode_backend
module Vb = Om_expr.Vm_batch

type t = {
  dim : int;
  width : int;
  env : float array array; (* env_size x width: states, t, CSE temps *)
  out : float array array; (* n_slots x width *)
  tasks : Vb.t array;
  epilogue : Vb.t;
}

let create (c : Bb.t) ~width =
  if width < 1 then invalid_arg "Batch_backend.create: width < 1";
  let progs = Array.map (fun (tk : Bb.compiled_task) -> tk.program) c.tasks in
  let env_size =
    Array.fold_left
      (fun m p -> max m (Om_expr.Vm.raw p).rw_env_size)
      (c.dim + 1) progs
  in
  {
    dim = c.dim;
    width;
    env = Array.init env_size (fun _ -> Array.make width 0.);
    out = Array.init c.n_slots (fun _ -> Array.make width 0.);
    tasks = Array.map (Vb.create ~width) progs;
    epilogue = Vb.create ~width c.epilogue_program;
  }

(* Fresh SoA columns and Vm_batch scratch over the shared conditioned
   instruction streams — no recompaction/refusion, so per-job cloning
   stays cheap. *)
let clone_scratch t =
  {
    t with
    env = Array.init (Array.length t.env) (fun _ -> Array.make t.width 0.);
    out = Array.init (Array.length t.out) (fun _ -> Array.make t.width 0.);
    tasks = Array.map Vb.clone_scratch t.tasks;
    epilogue = Vb.clone_scratch t.epilogue;
  }

let width t = t.width
let dim t = t.dim

let brhs t ~times ~y ~ydot ~lo ~hi =
  let n = hi - lo in
  for i = 0 to t.dim - 1 do
    Array.blit y.(i) lo t.env.(i) lo n
  done;
  Array.blit times lo t.env.(t.dim) lo n;
  let tasks = t.tasks in
  for ti = 0 to Array.length tasks - 1 do
    Vb.exec tasks.(ti) ~env:t.env ~out:t.out ~lo ~hi
  done;
  Vb.exec t.epilogue ~env:t.env ~out:t.out ~lo ~hi;
  for i = 0 to t.dim - 1 do
    Array.blit t.out.(i) lo ydot.(i) lo n
  done
