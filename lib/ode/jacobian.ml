let numeric_into ?(eps = 1e-8) (sys : Odesys.t) t y (m : Linalg.mat) =
  sys.counters.jac_calls <- sys.counters.jac_calls + 1;
  let n = sys.dim in
  let f0 = Array.make n 0. in
  Odesys.rhs_into sys t y f0;
  let yj = Array.copy y in
  let fj = Array.make n 0. in
  for j = 0 to n - 1 do
    let h = eps *. Float.max 1. (Float.abs y.(j)) in
    yj.(j) <- y.(j) +. h;
    Odesys.rhs_into sys t yj fj;
    yj.(j) <- y.(j);
    for i = 0 to n - 1 do
      m.(i).(j) <- (fj.(i) -. f0.(i)) /. h
    done
  done

let numeric ?eps (sys : Odesys.t) t y =
  let m = Linalg.make sys.dim sys.dim 0. in
  numeric_into ?eps sys t y m;
  m

let eval_into ?eps (sys : Odesys.t) t y m =
  match sys.jac with
  | Some j ->
      sys.counters.jac_calls <- sys.counters.jac_calls + 1;
      j t y m
  | None -> numeric_into ?eps sys t y m

let analytic (sys : Odesys.t) t y =
  let m = Linalg.make sys.dim sys.dim 0. in
  eval_into sys t y m;
  m

(* ------------------------------------------------------------------ *)
(* Sparse evaluation context and jac-mode resolution                   *)
(* ------------------------------------------------------------------ *)

type batch_rhs = float -> float array array -> float array array -> unit

type sparse_ctx = {
  spat : Sparse.pattern;
  coloring : Sparse.coloring;
  sj : Sparse.t;
  fd : Sparse.fd_ws;
  f0 : float array;
  newton : Sparse.newton;
  batch : batch_rhs option;
}

let sparse_ctx ?batch (sys : Odesys.t) =
  match sys.sparsity with
  | None -> None
  | Some spat ->
      let coloring = Sparse.color_columns spat in
      Some
        {
          spat;
          coloring;
          sj = Sparse.create spat;
          fd = Sparse.make_fd_ws spat coloring;
          f0 = Array.make sys.dim 0.;
          newton = Sparse.make_newton spat;
          batch;
        }

type plan = Dense_plan | Sparse_plan of sparse_ctx

let auto_dim_min = 16
let auto_density_max = 0.25

let plan ?(jac_mode = Odesys.Auto) ?batch (sys : Odesys.t) =
  match jac_mode with
  | Odesys.Dense -> Dense_plan
  | Odesys.Sparse -> (
      match sparse_ctx ?batch sys with
      | Some c -> Sparse_plan c
      | None -> Dense_plan)
  | Odesys.Auto -> (
      match sys.sparsity with
      | Some p
        when sys.dim >= auto_dim_min && Sparse.density p <= auto_density_max
        -> (
          match sparse_ctx ?batch sys with
          | Some c -> Sparse_plan c
          | None -> Dense_plan)
      | _ -> Dense_plan)

let sparse_eval_into ?eps (sys : Odesys.t) ctx t y =
  sys.counters.jac_calls <- sys.counters.jac_calls + 1;
  match sys.sjac with
  | Some sj -> sj t y ctx.sj.v
  | None ->
      (* Colored forward differences: one RHS evaluation per color plus
         the base point, against [dim + 1] for the dense path. *)
      Sparse.fd_prepare ?eps ctx.fd ~y;
      Odesys.rhs_into sys t y ctx.f0;
      let pts = Sparse.fd_points ctx.fd and vals = Sparse.fd_values ctx.fd in
      (match ctx.batch with
      | Some b ->
          b t pts vals;
          sys.counters.rhs_calls <-
            sys.counters.rhs_calls + Sparse.fd_groups ctx.fd
      | None ->
          for g = 0 to Sparse.fd_groups ctx.fd - 1 do
            Odesys.rhs_into sys t pts.(g) vals.(g)
          done);
      Sparse.fd_scatter ctx.fd ~f0:ctx.f0 ~jac:ctx.sj

let mode_stats ?(jac_mode = Odesys.Auto) (sys : Odesys.t) =
  let sparse_stats (p : Sparse.pattern) =
    let c = Sparse.color_columns p in
    ("sparse", Some (Sparse.nnz p, c.Sparse.ncolors))
  in
  match jac_mode with
  | Odesys.Dense -> ("dense", None)
  | Odesys.Sparse -> (
      match sys.sparsity with
      | Some p -> sparse_stats p
      | None -> ("dense", None))
  | Odesys.Auto -> (
      match sys.sparsity with
      | Some p
        when sys.dim >= auto_dim_min && Sparse.density p <= auto_density_max
        ->
          sparse_stats p
      | _ -> ("dense", None))

let plan_stats = function
  | Dense_plan -> ("dense", None)
  | Sparse_plan ctx ->
      ("sparse", Some (Sparse.nnz ctx.spat, ctx.coloring.ncolors))
