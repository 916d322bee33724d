(** ObjectMath reproduction — umbrella API.

    One [open]-able entry point over the whole system, following the
    paper's architecture (Figure 7):

    - {!Expr}/{!Deriv}: the symbolic expression engine,
    - {!Parser}/{!Flatten}/{!Flat_model}: the modelling-language frontend,
    - {!Scc}/{!Topo}: dependency analysis,
    - {!Pipeline}/{!Cse}/{!Partition}/{!Fortran}: the code generator,
    - {!Lpt}/{!Semidynamic}/{!Dag_sched}: scheduling,
    - {!Machine}/{!Supervisor}/{!Round_desc}: the MIMD machine model,
    - {!Domain_pool}/{!Par_exec}: real multicore execution of the
      generated tasks on OCaml domains,
    - {!Odesys}/{!Rk}/{!Bdf}/{!Lsoda}/{!Ensemble}/{!Jacobian}: the solver
      stack,
    - {!Runtime}: parallel execution of generated code on the machine
      model under a real solver,
    - {!Bearing2d}/{!Powerplant}/{!Servo}/{!Bearing_scaled}: the paper's
      application models. *)

module Expr = Om_expr.Expr
module Deriv = Om_expr.Deriv
module Subst = Om_expr.Subst
module Eval = Om_expr.Eval
module Cost = Om_expr.Cost
module Prefix_form = Om_expr.Prefix_form
module Vm = Om_expr.Vm
module Vm_code = Om_expr.Vm_code
module Vm_batch = Om_expr.Vm_batch
module Peephole = Om_expr.Peephole

module Ast = Om_lang.Ast
module Parser = Om_lang.Parser
module Flatten = Om_lang.Flatten
module Flat_model = Om_lang.Flat_model
module Typecheck = Om_lang.Typecheck
module Unparse = Om_lang.Unparse
module Override = Om_lang.Override
module Browser = Om_lang.Browser

module Digraph = Om_graph.Digraph
module Scc = Om_graph.Scc
module Topo = Om_graph.Topo
module Dot = Om_graph.Dot

module Linalg = Om_ode.Linalg
module Odesys = Om_ode.Odesys
module Rk = Om_ode.Rk
module Ensemble = Om_ode.Ensemble
module Bdf = Om_ode.Bdf
module Lsoda = Om_ode.Lsoda
module Jacobian = Om_ode.Jacobian

module Task = Om_sched.Task
module Lpt = Om_sched.Lpt
module Semidynamic = Om_sched.Semidynamic
module Dag_sched = Om_sched.Dag_sched

module Machine = Om_machine.Machine
module Supervisor = Om_machine.Supervisor
module Event_sim = Om_machine.Event_sim
module Round_desc = Om_machine.Round_desc

module Domain_pool = Om_parallel.Domain_pool
module Par_exec = Om_parallel.Par_exec

module Assignments = Om_codegen.Assignments
module Cse = Om_codegen.Cse
module Partition = Om_codegen.Partition
module Comm_analysis = Om_codegen.Comm_analysis
module Bytecode_backend = Om_codegen.Bytecode_backend
module Batch_backend = Om_codegen.Batch_backend
module Fortran = Om_codegen.Fortran
module C_backend = Om_codegen.C_backend
module Mathematica_backend = Om_codegen.Mathematica_backend
module Jacobian_gen = Om_codegen.Jacobian_gen
module Pipeline = Om_codegen.Pipeline
module Stats = Om_codegen.Stats
module Diagnostics = Om_codegen.Diagnostics

module Bearing2d = Om_models.Bearing2d
module Powerplant = Om_models.Powerplant
module Servo = Om_models.Servo
module Bearing_scaled = Om_models.Bearing_scaled

module Plot = Om_viz.Plot
module Grid = Om_pde.Grid
module Discretize = Om_pde.Discretize

module Runtime = Runtime
module Sweep = Sweep
module Ensemble_exec = Ensemble_exec

(** Compile an ObjectMath source text down to an ODE system ready for any
    solver in {!Rk}, {!Bdf} or {!Lsoda}: the model's sequential
    program with its sparsity pattern and symbolic Jacobian
    ({!Pipeline.system}). *)
let odesys_of_source src =
  let fm = Flatten.flatten_string src in
  let m = Pipeline.model_of_flat fm in
  (fm, Pipeline.system m (Pipeline.sequential_fn m))

(** Wrap a result of the full code-generation pipeline as an ODE system
    over its generated (bytecode) RHS, with the same pattern and
    symbolic Jacobian. *)
let odesys_of_result (r : Pipeline.result) =
  Pipeline.system (Pipeline.of_result r) (Pipeline.rhs_fn r)
