(** Supervisor/worker execution of one parallel RHS evaluation round
    (paper §3.2, Figure 10).

    The ODE solver runs on the supervisor processor.  At every solver step
    it ships the state vector to the workers, each worker evaluates the
    right-hand-side tasks assigned to it, and the results travel back to
    the supervisor, which gathers them into the derivative vector.  Message
    injection is serialised at the supervisor (it has one network port /
    memory bus), which is what eventually caps scalability.

    The round is executed on the discrete-event core ({!Event_sim}), so
    worker compute times may differ per task and per round (conditional
    right-hand sides). *)

type comm_strategy =
  | Broadcast_state
      (** every worker receives the full state vector — the paper's
          implemented scheme ("every variable that might be used is passed
          to the worker processors") *)
  | Needed_only
      (** every worker receives only the state entries its tasks read — the
          paper's planned improvement *)

type round_result = {
  duration : float;  (** wall-clock seconds of the round *)
  worker_compute : float array;  (** pure compute seconds per worker *)
  supervisor_busy : float;  (** seconds the supervisor spent on messaging *)
  bytes_sent : int;  (** state bytes shipped to workers *)
  bytes_received : int;  (** derivative bytes shipped back *)
}

val round :
  Machine.t ->
  nworkers:int ->
  assignment:int array ->
  task_flops:float array ->
  task_reads:int list array ->
  task_writes:int list array ->
  state_dim:int ->
  strategy:comm_strategy ->
  round_result
(** Simulate one round.  [assignment.(i)] is the worker (0-based) executing
    task [i]; [task_flops.(i)] its cost this round in flop units.  With
    [nworkers = 0] the supervisor computes everything locally with no
    communication.
    @raise Invalid_argument on negative worker ids or mismatched arrays. *)

val sequential_time : Machine.t -> task_flops:float array -> float
(** Time for the supervisor to evaluate the whole RHS locally. *)

type segment = {
  who : int;  (** worker index, or -1 for the supervisor *)
  t0 : float;
  t1 : float;
  kind : [ `Send | `Compute | `Recv ];
}

val round_traced :
  Machine.t ->
  nworkers:int ->
  assignment:int array ->
  task_flops:float array ->
  task_reads:int list array ->
  task_writes:int list array ->
  state_dim:int ->
  strategy:comm_strategy ->
  round_result * segment list
(** {!round} plus the activity intervals of every processor — the data
    behind a Gantt rendering of the paper's Figure 10 supervisor/worker
    scheme. *)

val round_desc :
  Machine.t -> nworkers:int -> strategy:comm_strategy -> Round_desc.t ->
  round_result
(** {!round} on a shared {!Round_desc.t} — the same descriptor the real
    domain executor ([Om_parallel.Par_exec]) consumes, so simulated and
    measured runs of one schedule stay in lockstep. *)

val tree_round :
  Machine.t ->
  fanout:int ->
  nworkers:int ->
  assignment:int array ->
  task_flops:float array ->
  task_reads:int list array ->
  task_writes:int list array ->
  state_dim:int ->
  round_result
(** Like {!round} but with tree-structured scatter and gather: the
    supervisor sends the state to [fanout] workers, each of which forwards
    copies down a [fanout]-ary tree before computing; results flow back up
    a reduction tree, each node combining its own output with its
    subtree's.  This removes the O(workers) message serialisation at the
    supervisor — the change §3.2.3 asks for ("this must be handled
    efficiently to make the application scalable").  Only the full-state
    broadcast strategy is meaningful here.
    @raise Invalid_argument if [fanout < 2] or [nworkers < 1]. *)

