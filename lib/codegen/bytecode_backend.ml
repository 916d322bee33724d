type cse_scope = Cse_none | Cse_per_task | Cse_global

type compiled_task = {
  id : int;
  label : string;
  eval : unit -> unit;
  measured_eval : unit -> float;
  static_cost : float;
  reads : int list;
  writes : int list;
  poison : float -> unit;
  program : Om_expr.Vm.program;
}

type t = {
  dim : int;
  tasks : compiled_task array;
  set_state : float -> float array -> unit;
  out : float array;
  run_sequential : unit -> unit;
  sequential : unit -> Om_expr.Vm.program;
  run_epilogue : unit -> unit;
  state_names : string array;
  cse_temp_total : int;
  vm_instrs : int;
  vm_flops : float;
  vm_fused : int;
  fresh_scratch : unit -> t;
}

let slot_target slot = Printf.sprintf "slot$%d" slot

let slot_of_target s =
  match String.index_opt s '$' with
  | Some i ->
      int_of_string (String.sub s (i + 1) (String.length s - i - 1))
  | None -> invalid_arg "Bytecode_backend: bad slot target"

(* A clone of [program ()] with its own register file, made on the
   first call. *)
let cloned_on_first_use program =
  let clone = ref None in
  fun () ->
    match !clone with
    | Some p -> p
    | None ->
        let p = Om_expr.Vm.clone_scratch (program ()) in
        clone := Some p;
        p

let compile ?(scope = Cse_per_task) ?(optimize = true) ?sequential
    (plan : Partition.plan) ~state_names =
  let dim = plan.dim in
  if Array.length state_names <> dim then
    invalid_arg "Bytecode_backend.compile: state_names length mismatch";
  let info = Comm_analysis.analyse plan ~state_names in
  (* One CSE block per compiled task. *)
  let blocks =
    match scope with
    | Cse_none ->
        Array.to_list plan.tasks
        |> List.map (fun (tk : Partition.task) ->
               let targets =
                 List.map (fun (s, e) -> (slot_target s, e)) tk.roots
               in
               ( tk.tid,
                 tk.label,
                 { Cse.temps = []; roots = targets },
                 info.reads.(tk.tid),
                 info.writes.(tk.tid) ))
    | Cse_per_task ->
        Array.to_list plan.tasks
        |> List.map (fun (tk : Partition.task) ->
               let targets =
                 List.map (fun (s, e) -> (slot_target s, e)) tk.roots
               in
               let block =
                 Cse.eliminate
                   ~prefix:(Printf.sprintf "cse$%d$" tk.tid)
                   targets
               in
               (tk.tid, tk.label, block, info.reads.(tk.tid),
                info.writes.(tk.tid)))
    | Cse_global ->
        let targets =
          Array.to_list plan.tasks
          |> List.concat_map (fun (tk : Partition.task) ->
                 List.map (fun (s, e) -> (slot_target s, e)) tk.roots)
        in
        let block = Cse.eliminate ~prefix:"cse$g$" targets in
        let module Iset = Set.Make (Int) in
        let union a =
          Array.fold_left
            (fun acc l -> List.fold_left (fun s x -> Iset.add x s) acc l)
            Iset.empty a
          |> Iset.elements
        in
        [ (0, "serial", block, union info.reads, union info.writes) ]
  in
  (* Environment: states, time, every temp of every block, then the
     partials. *)
  let temp_names =
    List.concat_map
      (fun (_, _, (b : Cse.block), _, _) ->
        List.map (fun (t : Cse.binding) -> t.name) b.temps)
      blocks
  in
  let names =
    Array.concat
      [
        state_names;
        [| "t" |];
        Array.of_list temp_names;
        Array.init plan.n_partials Partition.partial_name;
      ]
  in
  let env_size = Array.length names in
  (* One name -> slot table for every program of this compile. *)
  let layout = Om_expr.Layout.of_names names in
  let slot_of_name = Om_expr.Layout.slot layout in
  let out_size = dim in
  (* A plan slot's store: derivatives to [out], partials to their env
     slots. *)
  let target slot =
    if slot < dim then Om_expr.Vm.To_out slot
    else Om_expr.Vm.To_env (slot_of_name (Partition.partial_name (slot - dim)))
  in
  (* The lowering's buffers, reused from one program to the next.  Local
     to this call: serve compiles on several domains at once. *)
  let scratch = Om_expr.Vm.scratch () in
  (* Pure per-task compile products, shared by every scratch instance:
     register programs, whose instruction streams are immutable.  All
     lowering, CSE, peephole and validation work happens here, once. *)
  let plan_block (id, label, (block : Cse.block), reads, writes) =
    (* One register program per task: temps store to their env slots,
       roots to their targets.  Temp slots are task-private (per-task CSE
       prefixes make the names unique), so the optimiser may drop stores
       nothing reads; partials are read by the epilogue. *)
    let code =
      let module Iset = Set.Make (Int) in
      let priv =
        List.fold_left
          (fun s (b : Cse.binding) -> Iset.add (slot_of_name b.name) s)
          Iset.empty block.temps
      in
      let stmts =
        List.map
          (fun (b : Cse.binding) ->
            (b.expr, Om_expr.Vm.To_env (slot_of_name b.name)))
          block.temps
        @ List.map
            (fun (name, e) -> (e, target (slot_of_target name)))
            block.roots
      in
      Om_expr.Vm.compile_stmts ~optimize
        ~private_env_slot:(fun s -> Iset.mem s priv)
        ~scratch ~out_size layout stmts
    in
    let temp_msteps =
      List.map
        (fun (b : Cse.binding) ->
          (slot_of_name b.name, Om_expr.Cost_dyn.build layout b.expr))
        block.temps
    in
    let root_msteps =
      List.map
        (fun (name, e) ->
          (target (slot_of_target name), Om_expr.Cost_dyn.build layout e))
        block.roots
    in
    ( id, label, code, (temp_msteps, root_msteps), Cse.block_cost block,
      reads, writes )
  in
  let task_plans = List.map plan_block blocks in
  let epilogue_code =
    Om_expr.Vm.compile_stmts ~optimize ~scratch ~out_size layout
      (List.map (fun (d, e) -> (e, Om_expr.Vm.To_out d)) plan.epilogue)
  in
  let vm_instrs, vm_flops, vm_fused =
    let add (i, fl, fu) p =
      let s = Om_expr.Vm.stats p in
      (i + s.instrs, fl +. s.flops, fu + s.fused)
    in
    let acc =
      List.fold_left
        (fun acc (_, _, code, _, _, _, _) -> add acc code)
        (0, 0., 0) task_plans
    in
    add acc epilogue_code
  in
  let cse_temp_total = List.length temp_names in
  (* The sequential program: the unsplit right-hand sides lowered as one
     DAG by [Odesys.rhs_program], shared by every instance.  A caller
     that already builds it passes it in; otherwise it is built on first
     use, once, whichever domains ask. *)
  let sequential =
    match sequential with
    | Some program -> program
    | None ->
        let once =
          Once.make (fun () ->
              Om_ode.Odesys.rhs_program ~optimize
                (List.combine (Array.to_list state_names)
                   (Array.to_list plan.rhs)))
        in
        fun () -> Once.force once
  in
  (* Instantiation binds the shared plans to fresh mutable scratch: the
     env/out value arrays, the evaluation closures over them and, on
     first use, a register file for the sequential program and for each
     task program (Vm.clone_scratch) — an instance that only runs
     sequentially never allocates the per-task ones.  [compile]
     instantiates once; [clone_scratch] re-instantiates so another
     executor can run the same artifact concurrently. *)
  let rec instantiate () =
    let env = Array.make env_size 0. in
    let out = Array.make out_size 0. in
    let store tgt v =
      match tgt with
      | Om_expr.Vm.To_env s -> env.(s) <- v
      | Om_expr.Vm.To_out s -> out.(s) <- v
    in
    let build_task
        (id, label, program, (temp_msteps, root_msteps), static_cost, reads,
         writes) =
      let own = cloned_on_first_use (fun () -> program) in
      let eval () = Om_expr.Vm.exec (own ()) ~env ~out in
      let measured_eval () =
        let acc = ref 0. in
        List.iter (fun (slot, f) -> env.(slot) <- f env acc) temp_msteps;
        List.iter (fun (tgt, f) -> store tgt (f env acc)) root_msteps;
        !acc
      in
      let poison v = List.iter (fun slot -> store (target slot) v) writes in
      { id; label; eval; measured_eval; static_cost; reads; writes; poison;
        program }
    in
    let tasks = Array.of_list (List.map build_task task_plans) in
    let set_state t y =
      Array.blit y 0 env 0 dim;
      env.(dim) <- t
    in
    let own_sequential = cloned_on_first_use sequential in
    let run_sequential () = Om_expr.Vm.exec (own_sequential ()) ~env ~out in
    let own_epilogue = cloned_on_first_use (fun () -> epilogue_code) in
    let run_epilogue () = Om_expr.Vm.exec (own_epilogue ()) ~env ~out in
    {
      dim;
      tasks;
      set_state;
      out;
      run_sequential;
      sequential;
      run_epilogue;
      state_names;
      cse_temp_total;
      vm_instrs;
      vm_flops;
      vm_fused;
      fresh_scratch = instantiate;
    }
  in
  instantiate ()

let clone_scratch c = c.fresh_scratch ()

let rhs_fn c t y ydot =
  c.set_state t y;
  c.run_sequential ();
  Array.blit c.out 0 ydot 0 c.dim

let task_costs_static c = Array.map (fun tk -> tk.static_cost) c.tasks
