(* Parameter sweeps and Monte Carlo ensembles.

   The fast path promotes the swept parameter to a frozen state
   variable ([Override.promote_parameter]) so the model is parsed,
   flattened and compiled ONCE; every sweep value / Monte Carlo sample
   becomes one member of a lockstep ensemble whose initial state carries
   the parameter value, integrated by [Ensemble.rkf45] over the batched
   register VM ([Batch_backend], optionally sliced across domains by
   [Ensemble_exec]).

   Promotion is refused when the parameter is structurally rebound
   ([Override.Structural]) or when the promoted model no longer
   elaborates ([Flatten.Error] — e.g. an initial value depends on the
   parameter); those sweeps fall back to the legacy path that
   re-flattens per value and integrates each point separately.  A bad
   class/parameter name ([Override.Unknown_target]) is the caller's
   error and always escapes. *)

type point = {
  value : float;
  metric : float;
  steps : int;
  rhs_calls : int;
}

let final_value name sys tr =
  let col = Om_ode.Odesys.column tr name sys in
  col.(Array.length col - 1)

(* ---- compile-once preparation ---- *)

type compiled = {
  model : Om_codegen.Pipeline.model;
  sys : Om_ode.Odesys.t;
      (* promoted system over [model]'s sequential program, for metric
         name lookup *)
  y0 : float array; (* promoted model's default initial state *)
  slot_sets : int array array; (* per promoted parameter: its state slots *)
}

type prepared = Promoted of compiled | Legacy of string

let promote_all ast params =
  (* Promote each (class, param) in turn, flattening after each step so
     the new state slots of every promotion can be told apart. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (n, _) -> Hashtbl.replace seen n ())
    (Om_lang.Flatten.flatten ast).Om_lang.Flat_model.states;
  let ast, rev_slot_names =
    List.fold_left
      (fun (ast, acc) (cls, param) ->
        let ast = Om_lang.Override.promote_parameter ast ~cls ~param in
        let fm = Om_lang.Flatten.flatten ast in
        let fresh =
          List.filter
            (fun (n, _) -> not (Hashtbl.mem seen n))
            fm.Om_lang.Flat_model.states
          |> List.map fst
        in
        if fresh = [] then
          raise
            (Om_lang.Override.Structural
               (Printf.sprintf "promoting %s.%s adds no state" cls param));
        List.iter (fun n -> Hashtbl.replace seen n ()) fresh;
        (ast, fresh :: acc))
      (ast, []) params
  in
  (ast, List.rev rev_slot_names)

let prepare_many ~source params =
  let ast = Om_lang.Parser.parse_model source in
  (* Unknown_target is raised by promote_parameter before any
     structural analysis, so a bad class/parameter name escapes the
     fallback handlers below. *)
  try
    let ast, slot_names = promote_all ast params in
    let fm = Om_lang.Flatten.flatten ast in
    (* A sweep runs only the sequential program: no per-task code. *)
    let model = Om_codegen.Pipeline.model_of_flat fm in
    let sys =
      Om_codegen.Pipeline.system model
        (Om_codegen.Pipeline.sequential_fn model)
    in
    let index_of =
      let h = Hashtbl.create 64 in
      List.iteri
        (fun i (n, _) -> Hashtbl.replace h n i)
        fm.Om_lang.Flat_model.states;
      Hashtbl.find h
    in
    let slot_sets =
      List.map
        (fun names -> Array.of_list (List.map index_of names))
        slot_names
      |> Array.of_list
    in
    Promoted
      {
        model;
        sys;
        y0 = Om_lang.Flat_model.initial_values fm;
        slot_sets;
      }
  with
  | Om_lang.Override.Structural reason -> Legacy reason
  | Om_lang.Flatten.Error reason ->
      Legacy (Printf.sprintf "promoted model does not elaborate: %s" reason)

let prepare ~source ~cls ~param = prepare_many ~source [ (cls, param) ]

(* ---- ensemble integration of a prepared model ---- *)

(* [draws.(m)] assigns one value per promoted parameter for member [m]. *)
let integrate_batch ?(domains = 1) ?atol ?rtol c ~draws ~tend =
  let dim = Array.length c.y0 in
  let y0s =
    Array.map
      (fun vals ->
        let y = Array.copy c.y0 in
        Array.iteri
          (fun p v -> Array.iter (fun s -> y.(s) <- v) c.slot_sets.(p))
          vals;
        y)
      draws
  in
  let bb =
    Om_codegen.Batch_backend.of_program
      (Om_codegen.Pipeline.rhs_program c.model)
      ~dim ~width:(Array.length draws)
  in
  let ex = Ensemble_exec.create ~domains bb in
  Fun.protect
    ~finally:(fun () -> Ensemble_exec.shutdown ex)
    (fun () ->
      let ens = Om_ode.Ensemble.create ~dim ~f:(Ensemble_exec.brhs ex) y0s in
      Om_ode.Ensemble.rkf45 ~record:true ?atol ?rtol ens ~t0:0. ~tend)

let run_compiled ?domains c ~values ~tend ?atol ?rtol ~metric () =
  (* No values is no members, and a batch backend has at least one lane:
     answer before building one, as the legacy path does. *)
  if values = [] then []
  else
    let draws = Array.of_list (List.map (fun v -> [| v |]) values) in
    let rep = integrate_batch ?domains ?atol ?rtol c ~draws ~tend in
    let trajs =
      match rep.Om_ode.Ensemble.trajectories with
      | Some t -> t
      | None -> assert false
    in
    List.mapi
      (fun m v ->
        {
          value = v;
          metric = metric c.sys trajs.(m);
          steps = rep.steps.(m);
          rhs_calls = rep.rhs_evals.(m);
        })
      values

(* ---- legacy per-value path (structural overrides) ---- *)

(* One re-elaborated point: LSODA over the flat model's compiled system,
   whose symbolic Jacobian is derived only if the run goes stiff. *)
let integrate_flat ?atol ?rtol fm ~tend =
  let m = Om_codegen.Pipeline.model_of_flat fm in
  let sys =
    Om_codegen.Pipeline.system m (Om_codegen.Pipeline.sequential_fn m)
  in
  let y0 = Om_lang.Flat_model.initial_values fm in
  let r = Om_ode.Lsoda.integrate ?atol ?rtol sys ~t0:0. ~y0 ~tend in
  (sys, r.trajectory)

let run_legacy ~source ~cls ~param ~values ~tend ?atol ?rtol ~metric () =
  List.map
    (fun value ->
      let fm =
        Om_lang.Override.flatten_with ~source
          ~overrides:[ (cls, param, value) ]
      in
      let sys, trajectory = integrate_flat ?atol ?rtol fm ~tend in
      {
        value;
        metric = metric sys trajectory;
        steps = sys.counters.steps;
        rhs_calls = sys.counters.rhs_calls;
      })
    values

let run ~source ~cls ~param ~values ~tend ?atol ?rtol ~metric () =
  match prepare ~source ~cls ~param with
  | Promoted c -> run_compiled c ~values ~tend ?atol ?rtol ~metric ()
  | Legacy _ ->
      run_legacy ~source ~cls ~param ~values ~tend ?atol ?rtol ~metric ()

(* ---- Monte Carlo ensembles ---- *)

type dist = Uniform of float * float | Normal of float * float

type mc_sample = {
  draws : float array;
  mc_metric : float;
  mc_steps : int;
  mc_rhs_calls : int;
}

type mc_report = {
  samples : mc_sample list;
  mean : float;
  stddev : float;
  promoted : bool;
}

let draw st = function
  | Uniform (a, b) -> a +. ((b -. a) *. Random.State.float st 1.)
  | Normal (mu, sigma) ->
      (* Box-Muller; (1 - u1) keeps the log argument in (0, 1]. *)
      let u1 = Random.State.float st 1. and u2 = Random.State.float st 1. in
      mu
      +. sigma
         *. Float.sqrt (-2. *. Float.log (1. -. u1))
         *. Float.cos (2. *. Float.pi *. u2)

let draw_all ~specs ~samples ~seed =
  let st = Random.State.make [| seed |] in
  (* Fixed draw order — per sample, then per spec — so a given seed
     yields the same parameter sets on every run. *)
  Array.init samples (fun _ ->
      Array.of_list (List.map (fun (_, _, d) -> draw st d) specs))

let summarize samples =
  let n = float_of_int (List.length samples) in
  let mean =
    List.fold_left (fun a s -> a +. s.mc_metric) 0. samples /. n
  in
  let var =
    List.fold_left
      (fun a s ->
        let d = s.mc_metric -. mean in
        a +. (d *. d))
      0. samples
    /. n
  in
  { samples; mean; stddev = Float.sqrt var; promoted = true }

let monte_carlo ~source ~specs ~samples ~seed ~tend ?atol ?rtol ?domains
    ~metric () =
  if samples < 1 then invalid_arg "Sweep.monte_carlo: samples < 1";
  if specs = [] then invalid_arg "Sweep.monte_carlo: no parameter specs";
  let draws = draw_all ~specs ~samples ~seed in
  let params = List.map (fun (c, p, _) -> (c, p)) specs in
  match prepare_many ~source params with
  | Promoted c ->
      let rep = integrate_batch ?domains ?atol ?rtol c ~draws ~tend in
      let trajs =
        match rep.Om_ode.Ensemble.trajectories with
        | Some t -> t
        | None -> assert false
      in
      let out =
        List.init samples (fun m ->
            {
              draws = draws.(m);
              mc_metric = metric c.sys trajs.(m);
              mc_steps = rep.steps.(m);
              mc_rhs_calls = rep.rhs_evals.(m);
            })
      in
      summarize out
  | Legacy _ ->
      (* Per-sample re-elaboration: same draws, same metric. *)
      let out =
        List.init samples (fun m ->
            let overrides =
              List.mapi (fun p (cls, prm, _) -> (cls, prm, draws.(m).(p))) specs
            in
            let fm = Om_lang.Override.flatten_with ~source ~overrides in
            let sys, trajectory = integrate_flat ?atol ?rtol fm ~tend in
            {
              draws = draws.(m);
              mc_metric = metric sys trajectory;
              mc_steps = sys.counters.steps;
              mc_rhs_calls = sys.counters.rhs_calls;
            })
      in
      { (summarize out) with promoted = false }

let to_series label points =
  Om_viz.Plot.series label
    (List.map (fun p -> (p.value, p.metric)) points)
