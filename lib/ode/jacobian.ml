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

type sparse_ctx = {
  spat : Sparse.pattern;
  sj : Sparse.t;
  fd : (Sparse.fd_ws * float array) option;
  newton : Sparse.newton;
}

(* The colored-fd workspace is built only for a system without [sjac]:
   one with it never takes finite differences. *)
let sparse_ctx (sys : Odesys.t) spat =
  {
    spat;
    sj = Sparse.create spat;
    fd =
      (match sys.sjac with
      | Some _ -> None
      | None ->
          Some
            ( Sparse.make_fd_ws spat (Sparse.color_columns spat),
              Array.make sys.dim 0. ));
    newton = Sparse.make_newton spat;
  }

type plan = Dense_plan | Sparse_plan of sparse_ctx

(* The pattern the sparse path would run on, or [None] for the dense
   path: the one statement of the [Auto] rule that [plan] documents. *)
let sparse_pattern jac_mode (sys : Odesys.t) =
  match (jac_mode, sys.sparsity) with
  | Odesys.Dense, _ | _, None -> None
  | Odesys.Sparse, Some p -> Some p
  | Odesys.Auto, Some p ->
      if sys.dim >= 16 && Sparse.density p <= 0.25 then Some p else None

let plan ?(jac_mode = Odesys.Auto) (sys : Odesys.t) =
  match sparse_pattern jac_mode sys with
  | None -> Dense_plan
  | Some spat -> Sparse_plan (sparse_ctx sys spat)

let sparse_eval_into ?eps (sys : Odesys.t) ctx t y =
  sys.counters.jac_calls <- sys.counters.jac_calls + 1;
  match (sys.sjac, ctx.fd) with
  | Some sj, _ -> sj t y ctx.sj.v
  | None, Some (fd, f0) ->
      (* Colored forward differences: one RHS evaluation per color plus
         the base point, against [dim + 1] for the dense path. *)
      Sparse.fd_prepare ?eps fd ~y;
      Odesys.rhs_into sys t y f0;
      let pts = Sparse.fd_points fd and vals = Sparse.fd_values fd in
      for g = 0 to Sparse.fd_groups fd - 1 do
        Odesys.rhs_into sys t pts.(g) vals.(g)
      done;
      Sparse.fd_scatter fd ~f0 ~jac:ctx.sj
  | None, None ->
      invalid_arg "Jacobian.sparse_eval_into: context of a system with sjac"

let newton_factor jplan (sys : Odesys.t) t y ~alpha ~beta =
  match jplan with
  | Sparse_plan ctx ->
      sparse_eval_into sys ctx t y;
      Sparse.newton_assemble ctx.newton ~jac:ctx.sj ~alpha ~beta;
      Sparse.lu_solve (Sparse.lu_factor (Sparse.newton_matrix ctx.newton))
  | Dense_plan ->
      let n = sys.dim in
      let m = Linalg.make n n 0. in
      eval_into sys t y m;
      (* Overwrite J with the Newton matrix; [Linalg.lu_factor] factors
         a copy. *)
      for i = 0 to n - 1 do
        for k = 0 to n - 1 do
          m.(i).(k) <- (if i = k then alpha else 0.) -. (beta *. m.(i).(k))
        done
      done;
      Linalg.lu_solve (Linalg.lu_factor m)

let mode_stats ?(jac_mode = Odesys.Auto) (sys : Odesys.t) =
  match sparse_pattern jac_mode sys with
  | None -> ("dense", None)
  | Some p -> ("sparse", Some (Sparse.nnz p))
