(** Parallel simulation runtime: drive a real ODE solver with the generated
    RHS tasks executing on a simulated MIMD machine — or, with
    {!Real_domains}, on real OCaml domains.

    This is the complete loop of the paper's Figure 7/10: the solver runs
    on the supervisor; every RHS evaluation becomes one supervisor/worker
    round.  Under {!Simulated} execution the round is replayed on the
    machine model — the numerical results are exact (the tasks really
    execute), while the clock advances by the simulated round time.
    Under {!Real_domains} the same LPT schedule executes on a pool of
    worker domains ([Om_parallel.Par_exec]) and the clock is the wall
    clock.  [#RHS-calls per second] — the paper's Figure 12 metric —
    falls out as [rhs_calls / time] either way, and trajectories are
    bit-identical across execution modes and worker counts. *)

type scheduling =
  | Static  (** LPT on the static cost estimates, once *)
  | Static_with of float array
      (** LPT on externally supplied cost estimates, once (used by the
          scheduling ablation to model mis-estimated task times) *)
  | Semidynamic of int
      (** LPT on measured costs, rescheduling every [period] iterations
          (paper §3.2.3) *)

type topology =
  | Flat  (** all messages serialise at the supervisor (the paper's
              implementation) *)
  | Tree of int
      (** [fanout]-ary scatter/reduction trees (the scalable variant;
          forces full-state broadcast) *)

(** How RHS rounds are executed. *)
type execution =
  | Simulated  (** discrete-event machine model; simulated clock *)
  | Real_domains of int
      (** the round really runs on this many pre-spawned OCaml domains
          (ignoring [nworkers] and [machine], which describe the
          simulated target); time is wall-clock.  [Semidynamic period]
          is honoured: measured per-task times feed the paper's §3.2.3
          rescheduler and rebuilt LPT schedules are swapped into the
          live executor between rounds ([Om_parallel.Par_exec], whose
          every round is measured).  Trajectories stay bit-identical to
          sequential execution for every domain count and across
          reschedules. *)

type config = {
  machine : Om_machine.Machine.t;
  nworkers : int;  (** 0 = the solver evaluates the RHS locally *)
  strategy : Om_machine.Supervisor.comm_strategy;
  scheduling : scheduling;
  topology : topology;
  execution : execution;
  guard : bool;
      (** post-round finite check over the derivative vector (default
          on): a NaN/Inf produced by any task raises a typed
          [Nonfinite_output] naming the flattened equation instead of
          flowing silently into the solver's error estimator, and the
          solvers answer with retry/backoff *)
  faults : Om_guard.Fault_plan.t option;
      (** chaos: a deterministic fault-injection plan threaded into the
          executor (task output poisoning, worker delays, spawn
          failures; see [Om_guard.Fault_plan]).  Under {!Simulated}
          execution only task poisons apply. *)
  barrier_deadline : float;
      (** seconds before a round barrier records a worker stall and the
          runtime drops the stalled worker (degradation ladder);
          [0.] (default) disarms detection.  {!Real_domains} only. *)
  cancel : Om_guard.Cancel.t option;
      (** cooperative cancellation/deadline token, polled once per RHS
          round (default [None]).  A cancelled token or an expired
          deadline surfaces as the non-retryable
          [Om_guard.Om_error.Cancelled] / [Deadline_exceeded] fault,
          aborting the integration at the next round — the serve layer's
          per-job deadline enforcement. *)
  jac_mode : Om_ode.Odesys.jac_mode;
      (** Newton-matrix strategy for the stiff solver path (default
          [Auto]).  Every runtime system carries the model's structural
          sparsity pattern (the equations' read sets) and its symbolic
          Jacobian, so [Auto] takes the sparse path on large sparse
          models; trajectories are bitwise-identical across modes. *)
}

val default_config : config
(** One simulated worker on the SPARCCenter 2000, broadcast state,
    static LPT; guard on, no fault plan, stall detection disarmed,
    no cancellation token, [Auto] Jacobian mode.  The solvers bound
    their consecutive step retries after guarded faults with their own
    [max_retries] default (8). *)

type solver =
  | Rk4 of float  (** fixed step *)
  | Rkf45
  | Lsoda

type report = {
  trajectory : Om_ode.Odesys.trajectory;
  rhs_calls : int;
  sim_seconds : float;
      (** simulated machine time spent in RHS rounds; under
          {!Real_domains}, measured wall-clock seconds of the whole
          integration *)
  rhs_calls_per_sec : float;
  sched_overhead_seconds : float;
      (** rescheduling cost: simulated under {!Simulated}, measured
          wall-clock seconds spent rebuilding and swapping LPT schedules
          under {!Real_domains} *)
  supervisor_comm_seconds : float;
      (** supervisor busy time in the machine model; under
          {!Real_domains}, the measured barrier/synchronisation share of
          the rounds (round wall time minus the slowest worker's
          compute) *)
  worker_utilization : float;
      (** mean fraction of the round the workers spent computing (1.0
          when the solver runs the RHS locally); measured per-worker
          under {!Real_domains} ([Om_parallel.Round_stats]) *)
  worker_compute_seconds : float array;
      (** per-worker seconds spent executing tasks, summed over all
          rounds (simulated or measured to match the execution mode;
          length [nworkers], [[||]] when the RHS runs locally) *)
  worker_wait_seconds : float array;
      (** per-worker seconds spent idle at the round barrier, summed
          over all rounds — the per-worker complement of
          [worker_compute_seconds] *)
  reschedules : int;
  solver_steps : int;
  retries : int;
      (** solver step retries triggered by guarded runtime faults
          ([Odesys.counters.retries]) *)
  faults_injected : int;
      (** faults actually fired by [config.faults] ([0] without a plan) *)
  degradations : Om_guard.Om_error.degradation list;
      (** degradation-ladder steps taken, oldest first: spawn-time
          worker drops, mid-run stall drops, fall to sequential *)
  jac_mode : string;
      (** resolved Newton-matrix strategy the stiff path uses (or would
          use): ["dense"] or ["sparse"] *)
  jac_nnz : int option;
      (** structural nonzeros of the sparse Jacobian; [None] when the
          resolved mode is not sparse *)
  jac_calls : int;
      (** Jacobian evaluations performed ([Odesys.counters.jac_calls]) *)
}

val execute_model :
  ?config:config ->
  ?solver:solver ->
  ?t0:float ->
  tend:float ->
  Om_codegen.Pipeline.model ->
  report
(** Integrate the compiled model from its initial state.  Default solver
    [Rk4 (tend /. 400.)].

    What each mode builds of the model ({!Om_codegen.Pipeline}):
    [Real_domains 0] runs the model's sequential program
    ({!Om_codegen.Pipeline.sequential_fn}) and reads nothing else but
    the front (states, initial values, sparsity), so it builds no
    per-task code.  {!Simulated} and [Real_domains n] with [n >= 1]
    build the per-task back end ({!val:Om_codegen.Pipeline.result}) on
    first use.  The model is never mutated: every run executes on its
    own scratch (a register-file clone of the sequential program, a
    {!Om_codegen.Pipeline.clone_scratch} of the back end), so runs of
    one shared model may proceed on several domains at once.

    Every mode integrates the system {!Om_codegen.Pipeline.system}
    builds over its guarded, cancellable RHS: the stiff solvers take
    the model's symbolic Jacobian, derived once per model on the first
    Jacobian call (an RK4 run, or an LSODA run that stays non-stiff,
    derives none) and evaluated by the supervisor between rounds.  So
    an LSODA trajectory is bitwise the same at every worker count and
    equal to [omc simulate]'s, which builds its system the same way.
    Under {!Simulated} the clock charges RHS rounds only: a Jacobian
    evaluation adds no simulated time and no round (a finite-difference
    Jacobian used to cost [colors + 1] charged rounds), so a stiff run's
    [sim_seconds] and [rhs_calls_per_sec] measure the RHS alone.

    Robustness under {!Real_domains}: a failed pool construction
    ([Spawn_failure]) retries with one worker fewer down to sequential
    evaluation on the supervisor (the sequential program again); a
    barrier-deadline stall drops the stalled worker and LPT-reassigns
    its tasks to the survivors.  Every rung is recorded in
    [report.degradations], and trajectories stay bit-identical across
    all of them and across modes.  Guarded non-finite RHS output is
    retried with step-size backoff inside the solvers (bounded by
    their [max_retries] default, 8).
    @raise Om_guard.Om_error.Error ([Step_failure]) when a solver
    exhausts its retry or step budget. *)

val execute :
  ?config:config ->
  ?solver:solver ->
  ?t0:float ->
  tend:float ->
  Om_codegen.Pipeline.result ->
  report
(** {!execute_model} of {!Om_codegen.Pipeline.of_result}: the same
    run, for a result already built, which it executes on the result's
    own scratch rather than a clone — so one result must not run on
    several domains at once. *)

val round_seconds :
  ?config:config ->
  ?costs:float array ->
  Om_codegen.Pipeline.result ->
  float
(** Simulated duration of a single RHS round under an LPT schedule of the
    given per-task costs (static estimates by default) — the analytic fast
    path used by the scaling study. *)

val speedup :
  ?strategy:Om_machine.Supervisor.comm_strategy ->
  machine:Om_machine.Machine.t ->
  nworkers:int ->
  Om_codegen.Pipeline.result ->
  float
(** [round_seconds] with 0 workers divided by [round_seconds] with
    [nworkers]. *)
