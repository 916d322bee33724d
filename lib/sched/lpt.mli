(** Largest-processing-time (LPT) multiprocessor scheduling.

    The paper (§3.2.3, citing Coffman & Denning) schedules the mutually
    independent RHS tasks with LPT: sort by predicted cost, repeatedly give
    the next task to the least-loaded processor.  LPT is a 4/3-approximation
    of the optimal makespan. *)

type schedule = {
  nprocs : int;
  assignment : int array;  (** task id -> processor *)
  loads : float array;  (** per-processor total cost *)
  makespan : float;
}

val schedule : ?costs:float array -> Task.t array -> nprocs:int -> schedule
(** [costs] overrides the static per-task costs (used by the semi-dynamic
    variant with measured execution times).
    @raise Invalid_argument if [nprocs < 1]. *)

val tasks_of : schedule -> int -> int list
(** Task ids assigned to a processor, in ascending id order. *)
