(** List scheduling of a weighted task DAG onto processors, with a uniform
    communication delay between tasks placed on different processors.

    This is the machinery behind equation-system-level parallelism (paper
    §2.1): the SCC condensation of the equation dependency graph is a DAG of
    equation subsystems that "can be solved in parallel or in a pipeline".
    The scheduler is ETF-flavoured (earliest task finish on the
    highest-level-first priority order). *)

type schedule = {
  nprocs : int;
  assignment : int array;  (** node -> processor *)
  start_time : float array;
  finish_time : float array;
  makespan : float;
}

val schedule :
  Om_graph.Digraph.t ->
  weights:float array ->
  comm:float ->
  nprocs:int ->
  schedule
(** [weights.(v)] is node [v]'s execution cost; [comm] is the delay added
    when a dependence crosses processors.
    @raise Invalid_argument on cyclic graphs or size mismatches. *)

val speedup : Om_graph.Digraph.t -> weights:float array -> comm:float -> nprocs:int -> float
(** Sequential total weight divided by the scheduled makespan. *)

val max_speedup : Om_graph.Digraph.t -> weights:float array -> float
(** Total weight / critical path: the paper's bound on what partitioning
    into subsystems can ever deliver. *)

val pipeline_throughput :
  Om_graph.Digraph.t -> weights:float array -> nprocs:int -> float
(** Steady-state speedup of pipelined execution of the condensation DAG
    (paper §2.1: "values produced from the solution of one system are
    continuously passed as input for the solution of another system").
    With every subsystem mapped to its own processor the initiation
    interval is the heaviest stage, so throughput-speedup is
    [total / max stage weight]; with fewer processors than stages the
    stages are packed with LPT first.
    @raise Invalid_argument on cyclic graphs or [nprocs < 1] (the same
    contract as {!schedule}, which has always raised on a non-positive
    processor count). *)
