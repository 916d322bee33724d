(** Method-of-lines discretisation: a PDE becomes a (large) flat ODE model
    that flows through the same analysis, code generation and parallel
    execution pipeline as every other model — the paper's planned PDE
    extension (§6).

    Spatial derivatives use second-order central differences; boundary
    conditions are Dirichlet (the boundary node is a constant, not a
    state) or Neumann (mirror ghost node).  The right-hand side of the
    evolution equation is supplied as a function building a symbolic
    expression from the local field value and its discrete derivatives,
    so arbitrary reaction/advection/diffusion terms are expressible. *)

type boundary =
  | Dirichlet of float
  | Neumann of float  (** prescribed outward derivative *)

type spec_1d = {
  name : string;
  field : string;  (** state name prefix, e.g. ["u"] *)
  grid : Grid.d1;
  initial : float -> float;  (** initial profile u(x, 0) *)
  rhs :
    u:Om_expr.Expr.t ->
    ux:Om_expr.Expr.t ->
    uxx:Om_expr.Expr.t ->
    x:float ->
    Om_expr.Expr.t;
      (** du/dt at one interior node, from the field value and its
          discrete first/second space derivatives *)
  left : boundary;
  right : boundary;
}

val discretize_1d : spec_1d -> Om_lang.Flat_model.t
(** One state per interior node (Dirichlet) or per non-Dirichlet node.
    States are named [field[i]] in grid order. *)

type spec_2d = {
  name2 : string;
  field2 : string;
  grid2 : Grid.d2;
  initial2 : float -> float -> float;
  rhs2 :
    u:Om_expr.Expr.t ->
    ux:Om_expr.Expr.t ->
    uy:Om_expr.Expr.t ->
    uxx:Om_expr.Expr.t ->
    uyy:Om_expr.Expr.t ->
    x:float ->
    y:float ->
    Om_expr.Expr.t;
  boundary2 : boundary;  (** applied on all four edges *)
}

(** {1 Ready-made models} *)

val heat_1d :
  ?n:int -> ?length:float -> ?alpha:float -> unit -> Om_lang.Flat_model.t
(** Heat equation [u_t = alpha u_xx] on [0, length], Dirichlet 0 at both
    ends, initial profile [sin (pi x / length)] (fundamental mode, which
    decays at the known analytic rate — used by the tests). *)

val advection_diffusion_1d :
  ?n:int -> ?length:float -> ?speed:float -> ?alpha:float -> unit ->
  Om_lang.Flat_model.t
(** [u_t = -speed u_x + alpha u_xx] with a Gaussian initial pulse,
    Dirichlet 0 boundaries. *)

val burgers_1d :
  ?n:int -> ?length:float -> ?nu:float -> unit -> Om_lang.Flat_model.t
(** Viscous Burgers [u_t = -u u_x + nu u_xx]: the nonlinear fluid-dynamics
    flavour the paper's §6 mentions. *)

val heat_2d :
  ?nx:int -> ?ny:int -> ?alpha:float -> unit -> Om_lang.Flat_model.t
(** [u_t = alpha (u_xx + u_yy)] on the unit square, Dirichlet 0, initial
    [sin(pi x) sin(pi y)]. *)

val wave_1d :
  ?n:int -> ?length:float -> ?speed:float -> unit -> Om_lang.Flat_model.t
(** The wave equation [u_tt = c^2 u_xx], reduced to first order with a
    velocity field [v = u_t] (two states per node), Dirichlet 0 ends,
    initial displacement [sin(pi x / length)] at rest — a standing wave
    with period [2 length / c], which the tests check. *)
