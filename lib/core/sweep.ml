(* Parameter sweeps and Monte Carlo ensembles.

   Each swept parameter is promoted ([Override.promote_parameter]): its
   default reads a frozen state, so the model is parsed, flattened and
   compiled once, and every sweep value / Monte Carlo sample is one
   member of an ensemble whose frozen states carry that member's values,
   integrated once by [Ensemble.rkf45] over the batched register VM
   ([Batch_backend], optionally sliced across domains by
   [Ensemble_exec]).  Every member steps on its own, so a point does
   not depend on the other values in its batch.  Each member reports the final values of the states
   the caller names; no trajectory is recorded.  A bad class/parameter
   name ([Override.Unknown_target]) and a parameter whose every use
   rebinds it ([Override.Shadowed]) are the caller's errors. *)

type point = {
  value : float;
  finals : float array;
  steps : int;
  rhs_calls : int;
}

(* ---- compile-once preparation ---- *)

type compiled = {
  model : Om_codegen.Pipeline.model;
  slot : string -> int;  (* a state's index in the promoted model *)
  y0 : float array;  (* initial state at the parameters' defaults *)
  slot_sets : int array array;  (* per promoted parameter: its frozen states *)
  inits : (int * Om_expr.Expr.t) list;
      (* states whose initial value reads a frozen state *)
  frozen : (string * int) list;  (* every frozen state, for [inits] *)
}

let prepare ~source params =
  let ast = Om_lang.Parser.parse_model source in
  let promoted =
    List.fold_left
      (fun ast (cls, param) -> Om_lang.Override.promote_parameter ast ~cls ~param)
      ast params
  in
  let p = Om_lang.Flatten.flatten_promoted promoted in
  let states = p.flat.Om_lang.Flat_model.states in
  let slots = Hashtbl.create 64 in
  List.iteri (fun i (n, _) -> Hashtbl.replace slots n i) states;
  let index_of n =
    match Hashtbl.find_opt slots n with
    | Some i -> i
    | None -> invalid_arg ("Sweep: no state " ^ n)
  in
  let slot_sets =
    List.map
      (fun (cls, param) ->
        let suffix = "." ^ Om_lang.Override.frozen ~cls ~param in
        let names =
          List.filter_map
            (fun (n, _) ->
              if String.ends_with ~suffix n then Some n else None)
            states
        in
        if not (List.exists (fun n -> List.mem n p.reached) names) then
          raise (Om_lang.Override.shadowed ast ~cls ~param);
        Array.of_list (List.map index_of names))
      params
    |> Array.of_list
  in
  (* A sweep runs only the sequential program: no per-task code. *)
  let model = Om_codegen.Pipeline.model_of_flat p.flat in
  {
    model;
    slot = index_of;
    y0 = Om_lang.Flat_model.initial_values p.flat;
    slot_sets;
    inits = List.map (fun (n, e) -> (index_of n, e)) p.inits;
    frozen =
      List.filter_map
        (fun (n, _) ->
          if Om_lang.Override.is_frozen n then Some (n, index_of n) else None)
        states;
  }

(* ---- ensemble integration of a prepared model ---- *)

(* Member [vals]'s initial state: one value per promoted parameter in
   its frozen states, then the initial values that read them. *)
let member_y0 c vals =
  let y = Array.copy c.y0 in
  Array.iteri (fun p v -> Array.iter (fun s -> y.(s) <- v) c.slot_sets.(p)) vals;
  if c.inits <> [] then begin
    let env = Hashtbl.create 8 in
    List.iter (fun (n, s) -> Hashtbl.replace env n y.(s)) c.frozen;
    List.iter (fun (i, e) -> y.(i) <- Om_expr.Eval.eval env e) c.inits
  end;
  y

(* [draws.(m)] assigns one value per promoted parameter for member [m];
   [k m finals steps rhs_calls] reports it, [finals] holding the final
   values of [states]. *)
let integrate ?(domains = 1) ?atol ?rtol c ~draws ~tend ~states k =
  let slots = Array.map c.slot states in
  let dim = Array.length c.y0 in
  let bb =
    Om_codegen.Batch_backend.of_program
      (Om_codegen.Pipeline.rhs_program c.model)
      ~dim ~width:(Array.length draws)
  in
  let ex = Ensemble_exec.create ~domains bb in
  let rep =
    Fun.protect
      ~finally:(fun () -> Ensemble_exec.shutdown ex)
      (fun () ->
        let ens =
          Om_ode.Ensemble.create ~dim ~f:(Ensemble_exec.brhs ex)
            (Array.map (member_y0 c) draws)
        in
        Om_ode.Ensemble.rkf45 ?atol ?rtol ens ~t0:0. ~tend)
  in
  List.init (Array.length draws) (fun m ->
      let y = rep.Om_ode.Ensemble.final.(m) in
      k m (Array.map (fun s -> y.(s)) slots) rep.steps.(m) rep.rhs_evals.(m))

let run ?domains ~source ~cls ~param ~values ~tend ?atol ?rtol ~states () =
  let c = prepare ~source [ (cls, param) ] in
  (* No values is no members, and a batch backend has at least one
     lane: answer before building one. *)
  if values = [] then []
  else
    let values = Array.of_list values in
    integrate ?domains ?atol ?rtol c
      ~draws:(Array.map (fun v -> [| v |]) values)
      ~tend ~states
      (fun m finals steps rhs_calls ->
        { value = values.(m); finals; steps; rhs_calls })

(* ---- Monte Carlo ensembles ---- *)

type dist = Uniform of float * float | Normal of float * float

type mc_sample = {
  draws : float array;
  mc_final : float;
  mc_steps : int;
  mc_rhs_calls : int;
}

type mc_report = { samples : mc_sample list; mean : float; stddev : float }

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
    List.fold_left (fun a s -> a +. s.mc_final) 0. samples /. n
  in
  let var =
    List.fold_left
      (fun a s ->
        let d = s.mc_final -. mean in
        a +. (d *. d))
      0. samples
    /. n
  in
  { samples; mean; stddev = Float.sqrt var }

let monte_carlo ~source ~specs ~samples ~seed ~tend ?atol ?rtol ?domains
    ~state () =
  if samples < 1 then invalid_arg "Sweep.monte_carlo: samples < 1";
  if specs = [] then invalid_arg "Sweep.monte_carlo: no parameter specs";
  let draws = draw_all ~specs ~samples ~seed in
  let c = prepare ~source (List.map (fun (c, p, _) -> (c, p)) specs) in
  summarize
    (integrate ?domains ?atol ?rtol c ~draws ~tend ~states:[| state |]
       (fun m finals steps rhs_calls ->
         {
           draws = draws.(m);
           mc_final = finals.(0);
           mc_steps = steps;
           mc_rhs_calls = rhs_calls;
         }))

let to_series label i points =
  Om_viz.Plot.series label
    (List.map (fun p -> (p.value, p.finals.(i))) points)
