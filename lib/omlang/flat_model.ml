(** Flat ODE model: the result of compiling away classes, inheritance,
    composition and instance arrays.

    Every state variable carries its fully qualified name (for example
    [W[3].phi] for roller 3's angle) and a numeric initial value; every
    equation is an explicit first-order ODE whose right-hand side refers
    only to state variables and the time variable ["t"].  This is the
    "ODEs internal form" box of the paper's Figure 7. *)

type t = {
  name : string;
  states : (string * float) list;  (** ordered: defines the state vector *)
  equations : (string * Om_expr.Expr.t) list;
      (** same order as [states]; [fst] is the state name *)
}

let dim m = List.length m.states

let state_names m = Array.of_list (List.map fst m.states)

let initial_values m = Array.of_list (List.map snd m.states)

let rhs_of m name =
  match List.assoc_opt name m.equations with
  | Some e -> e
  | None -> invalid_arg ("Flat_model.rhs_of: unknown state " ^ name)

(** Dependency graph between equations: an edge [x -> y] means state [x]
    appears in the right-hand side of [y'] — the input to the SCC analysis
    of paper Figures 3 and 6. *)
let dependency_graph m =
  let g = Om_graph.Digraph.create () in
  List.iter (fun (s, _) -> ignore (Om_graph.Digraph.add_node g s)) m.states;
  (* [find_node] gives the first node of a name, as [List.assoc] would. *)
  List.iter
    (fun (y, rhs) ->
      let target = Option.get (Om_graph.Digraph.find_node g y) in
      List.iter
        (fun v ->
          match Om_graph.Digraph.find_node g v with
          | Some src -> Om_graph.Digraph.add_edge g src target
          | None -> ())
        (Om_expr.Expr.vars rhs))
    m.equations;
  g

let total_rhs_flops m =
  List.fold_left
    (fun acc (_, e) -> acc +. Om_expr.Cost.flops_mean e)
    0. m.equations
