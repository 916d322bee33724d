(** Jacobian matrices df/dy of an ODE system. *)

val numeric :
  ?eps:float -> Odesys.t -> float -> float array -> Linalg.mat
(** Forward-difference approximation; [dim + 1] RHS evaluations, the
    "usually very expensive" internal path of LSODA the paper mentions.
    Bumps [counters.jac_calls]. *)

val numeric_into :
  ?eps:float -> Odesys.t -> float -> float array -> Linalg.mat -> unit
(** In-place {!numeric}; bumps [counters.jac_calls] exactly once like
    every other evaluation entry point. *)

val analytic : Odesys.t -> float -> float array -> Linalg.mat
(** Use the system's analytic Jacobian when present, else fall back to
    {!numeric}. *)

(** {1 Sparse evaluation and jac-mode resolution} *)

type sparse_ctx = {
  spat : Sparse.pattern;
  sj : Sparse.t;  (** current Jacobian values *)
  fd : (Sparse.fd_ws * float array) option;
      (** colored-fd buffers and the base-point derivative; [None] for a
          system with a symbolic [sjac], which takes no finite
          differences *)
  newton : Sparse.newton;
}
(** Per-integration workspace for the sparse Newton path: pattern,
    value storage, colored-fd buffers when the system needs them and
    the assembled [alpha*I - beta*J] matrix.  Built once by {!plan},
    for the system it is then used with. *)

(** Resolved Newton-matrix strategy for a whole integration. *)
type plan = Dense_plan | Sparse_plan of sparse_ctx

val plan : ?jac_mode:Odesys.jac_mode -> Odesys.t -> plan
(** Resolve a {!Odesys.jac_mode} (default [Auto]) against the system.
    [Auto] selects the sparse path when a pattern
    is declared, [dim >= 16] and the density is at most [0.25] —
    below that size the dense factorisation is at least as fast and
    the workspace is not worth building.  [Sparse] without a declared
    pattern falls back to the dense path (the always-available
    fallback). *)

val sparse_eval_into :
  ?eps:float -> Odesys.t -> sparse_ctx -> float -> float array -> unit
(** Evaluate the Jacobian into [ctx.sj]: through the system's sparse
    analytic writer when present, else by colored forward differences
    (one RHS evaluation per color plus the base point — bitwise the
    dense forward differences on every structural entry).  Bumps
    [counters.jac_calls]; the fd path bumps [counters.rhs_calls] by
    [colors + 1].
    @raise Invalid_argument for a system without [sjac] and a context
    planned for one with it. *)

val newton_factor :
  plan -> Odesys.t -> float -> float array -> alpha:float -> beta:float ->
  float array -> float array
(** [newton_factor plan sys t y ~alpha ~beta] evaluates J at [(t, y)]
    through [plan], forms the Newton matrix [alpha*I - beta*J], factors
    it and returns its solve — the one place the stiff solvers ({!Bdf},
    and through it {!Lsoda}) build that matrix.  The dense plan computes every
    entry as [(if i = k then alpha else 0.) -. beta *. j.(i).(k)] and
    factors with {!Linalg.lu_factor}; the sparse plan replays the same
    arithmetic with {!Sparse.newton_assemble} and {!Sparse.lu_factor},
    so both solves are bitwise equal.  Bumps [counters.jac_calls] (and
    the fd path's [rhs_calls]) like the evaluation entry points; the
    caller counts the factorisation.
    @raise Linalg.Singular when the Newton matrix is singular. *)

val mode_stats :
  ?jac_mode:Odesys.jac_mode -> Odesys.t -> string * int option
(** Human-readable name of the mode {!plan} would resolve (["dense"] or
    ["sparse"]), plus the structural nonzero count of the sparse one,
    without building the sparse workspace — surfaced in the runtime
    report and [omc --jac-mode]. *)
