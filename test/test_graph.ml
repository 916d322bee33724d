(* Tests for the graph substrate: digraph operations, Tarjan SCC,
   condensation, topological ordering/layering and DOT output. *)

module D = Om_graph.Digraph
module Scc = Om_graph.Scc
module Topo = Om_graph.Topo
module Dot = Om_graph.Dot

let build labels edges = D.of_edges labels edges

let test_digraph_basic () =
  let g = build [ "a"; "b"; "c" ] [ ("a", "b"); ("b", "c") ] in
  Alcotest.(check int) "nodes" 3 (D.node_count g);
  Alcotest.(check int) "edges" 2 (D.edge_count g);
  Alcotest.(check (list int)) "succ a" [ 1 ] (D.succ g 0);
  Alcotest.(check (list int)) "pred c" [ 1 ] (D.pred g 2);
  Alcotest.(check string) "label" "b" (D.label g 1);
  Alcotest.(check bool) "mem" true (D.mem_edge g 0 1);
  Alcotest.(check bool) "not mem" false (D.mem_edge g 1 0)

let test_duplicate_edges () =
  let g = D.create () in
  let a = D.add_node g "a" and b = D.add_node g "b" in
  D.add_edge g a b;
  D.add_edge g a b;
  Alcotest.(check int) "dedup" 1 (D.edge_count g)

let test_transpose () =
  let g = build [ "a"; "b" ] [ ("a", "b") ] in
  let t = D.transpose g in
  Alcotest.(check bool) "reversed" true (D.mem_edge t 1 0);
  Alcotest.(check bool) "original gone" false (D.mem_edge t 0 1)

let test_bad_edge () =
  let g = D.create () in
  let a = D.add_node g "a" in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Digraph: node 7 out of range") (fun () ->
      D.add_edge g a 7)

(* ---------- Tarjan ---------- *)

let test_scc_simple_cycle () =
  let g = build [ "a"; "b"; "c" ] [ ("a", "b"); ("b", "c"); ("c", "a") ] in
  let c = Scc.tarjan g in
  Alcotest.(check int) "one component" 1 c.count

let test_scc_dag () =
  let g = build [ "a"; "b"; "c" ] [ ("a", "b"); ("b", "c") ] in
  let c = Scc.tarjan g in
  Alcotest.(check int) "three components" 3 c.count

let test_scc_two_cycles () =
  let g =
    build
      [ "a"; "b"; "c"; "d"; "e" ]
      [ ("a", "b"); ("b", "a"); ("b", "c"); ("c", "d"); ("d", "c"); ("d", "e") ]
  in
  let c = Scc.tarjan g in
  Alcotest.(check int) "3 components" 3 c.count;
  (* a,b together; c,d together; e alone *)
  Alcotest.(check bool) "a~b" true (c.comp_of.(0) = c.comp_of.(1));
  Alcotest.(check bool) "c~d" true (c.comp_of.(2) = c.comp_of.(3));
  Alcotest.(check bool) "e separate" true (c.comp_of.(4) <> c.comp_of.(3))

let test_scc_reverse_topological () =
  (* Component numbering: earlier components have no edges into later
     ones (reverse topological). *)
  let g = build [ "a"; "b"; "c" ] [ ("a", "b"); ("b", "c") ] in
  let c = Scc.tarjan g in
  (* "c" is a sink: must be component 0. *)
  Alcotest.(check int) "sink first" 0 c.comp_of.(2)

let test_condensation () =
  let g =
    build
      [ "a"; "b"; "c"; "d" ]
      [ ("a", "b"); ("b", "a"); ("b", "c"); ("c", "d"); ("d", "c") ]
  in
  let c = Scc.tarjan g in
  let cond = Scc.condensation g c in
  Alcotest.(check int) "2 supernodes" 2 (D.node_count cond);
  Alcotest.(check int) "1 superedge" 1 (D.edge_count cond);
  Alcotest.(check bool) "acyclic" true (Topo.is_acyclic cond)

let test_nontrivial () =
  let g =
    build [ "a"; "b"; "c"; "s" ]
      [ ("a", "b"); ("b", "a"); ("s", "s") ]
  in
  let c = Scc.tarjan g in
  let nt = Scc.nontrivial g c in
  (* {a,b} is nontrivial; the self loop s is too; c is not. *)
  Alcotest.(check int) "two nontrivial" 2 (List.length nt)

(* Property: comp_of is consistent with mutual reachability. *)
let reachable g =
  let n = D.node_count g in
  let r = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    let rec dfs v =
      List.iter (fun w -> if not r.(i).(w) then begin r.(i).(w) <- true; dfs w end) (D.succ g v)
    in
    dfs i
  done;
  r

let random_graph_gen =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* edges =
      list_size (int_bound (n * 2))
        (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    return (n, edges))

let arbitrary_graph =
  QCheck.make
    ~print:(fun (n, e) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) e)))
    random_graph_gen

let graph_of (n, edges) =
  let g = D.create () in
  for i = 0 to n - 1 do
    ignore (D.add_node g (string_of_int i))
  done;
  List.iter (fun (a, b) -> D.add_edge g a b) edges;
  g

let prop_scc_mutual_reachability =
  QCheck.Test.make ~name:"same SCC iff mutually reachable" ~count:200
    arbitrary_graph (fun spec ->
      let g = graph_of spec in
      let c = Scc.tarjan g in
      let r = reachable g in
      let n = D.node_count g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let same = c.comp_of.(i) = c.comp_of.(j) in
            let mutual = r.(i).(j) && r.(j).(i) in
            if same <> mutual then ok := false
          end
        done
      done;
      !ok)

let prop_condensation_acyclic =
  QCheck.Test.make ~name:"condensation is acyclic" ~count:200 arbitrary_graph
    (fun spec ->
      let g = graph_of spec in
      let c = Scc.tarjan g in
      Topo.is_acyclic (Scc.condensation g c))

(* ---------- topo ---------- *)

let test_topo_sort () =
  let g = build [ "a"; "b"; "c"; "d" ] [ ("a", "b"); ("a", "c"); ("b", "d"); ("c", "d") ] in
  let order = Topo.sort g in
  let pos = Array.make 4 0 in
  List.iteri (fun i v -> pos.(v) <- i) order;
  Alcotest.(check bool) "a before b" true (pos.(0) < pos.(1));
  Alcotest.(check bool) "b before d" true (pos.(1) < pos.(3));
  Alcotest.(check bool) "c before d" true (pos.(2) < pos.(3))

let test_topo_cycle () =
  let g = build [ "a"; "b" ] [ ("a", "b"); ("b", "a") ] in
  Alcotest.check_raises "cycle" (Invalid_argument "Topo.sort: graph has a cycle")
    (fun () -> ignore (Topo.sort g))

let test_layers () =
  let g = build [ "a"; "b"; "c"; "d" ] [ ("a", "b"); ("a", "c"); ("b", "d"); ("c", "d") ] in
  let layers = Topo.layers g in
  Alcotest.(check int) "3 layers" 3 (List.length layers);
  Alcotest.(check (list int)) "layer 0" [ 0 ] (List.nth layers 0);
  Alcotest.(check (list int)) "layer 1" [ 1; 2 ] (List.sort compare (List.nth layers 1))

let prop_layers_respect_edges =
  QCheck.Test.make ~name:"layers respect edges on DAGs" ~count:200
    arbitrary_graph (fun spec ->
      let n, edges = spec in
      (* Force a DAG by orienting edges low->high. *)
      let dag_edges =
        List.filter_map
          (fun (a, b) ->
            if a < b then Some (a, b) else if b < a then Some (b, a) else None)
          edges
      in
      let g = graph_of (n, dag_edges) in
      let layers = Topo.layers g in
      let level = Array.make n 0 in
      List.iteri (fun i l -> List.iter (fun v -> level.(v) <- i) l) layers;
      List.for_all (fun (a, b) -> level.(a) < level.(b)) dag_edges)

(* ---------- dot ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_dot_output () =
  let g = build [ "a"; "b" ] [ ("a", "b") ] in
  let s = Dot.to_string g in
  Alcotest.(check bool) "has node a" true
    (contains s "label=\"a\"");
  Alcotest.(check bool) "has edge" true (contains s "n0 -> n1")

let test_dot_clusters () =
  let g = build [ "a"; "b"; "c" ] [ ("a", "b"); ("b", "a") ] in
  let c = Scc.tarjan g in
  let s = Dot.with_components g c in
  Alcotest.(check bool) "has cluster" true
    (contains s "subgraph cluster_")

let test_dot_escaping () =
  let g = build [ "we\"ird" ] [] in
  let s = Dot.to_string g in
  Alcotest.(check bool) "escaped quote" true
    (contains s "we\\\"ird")

let test_dot_save () =
  let g = build [ "a" ] [] in
  let path = Filename.temp_file "graph" ".dot" in
  Dot.save path (Dot.to_string g);
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "file written" true (len > 10)

let test_condensation_labels () =
  let g = build [ "a"; "b"; "c" ] [ ("a", "b"); ("b", "a") ] in
  let c = Scc.tarjan g in
  let cond = Scc.condensation g c in
  let labels = List.map (D.label cond) (D.nodes cond) in
  Alcotest.(check bool) "member count annotated" true
    (List.exists (fun l -> contains l "(+1)") labels)

let () =
  let q = Qcheck_seed.to_alcotest in
  Alcotest.run "om_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "duplicate edges" `Quick test_duplicate_edges;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "bad edge" `Quick test_bad_edge;
        ] );
      ( "scc",
        [
          Alcotest.test_case "simple cycle" `Quick test_scc_simple_cycle;
          Alcotest.test_case "dag" `Quick test_scc_dag;
          Alcotest.test_case "two cycles" `Quick test_scc_two_cycles;
          Alcotest.test_case "reverse topological numbering" `Quick
            test_scc_reverse_topological;
          Alcotest.test_case "condensation" `Quick test_condensation;
          Alcotest.test_case "nontrivial" `Quick test_nontrivial;
          q prop_scc_mutual_reachability;
          q prop_condensation_acyclic;
        ] );
      ( "topo",
        [
          Alcotest.test_case "sort" `Quick test_topo_sort;
          Alcotest.test_case "cycle detection" `Quick test_topo_cycle;
          Alcotest.test_case "layers" `Quick test_layers;
          q prop_layers_respect_edges;
        ] );
      ( "dot",
        [
          Alcotest.test_case "output" `Quick test_dot_output;
          Alcotest.test_case "clusters" `Quick test_dot_clusters;
          Alcotest.test_case "escaping" `Quick test_dot_escaping;
          Alcotest.test_case "save" `Quick test_dot_save;
          Alcotest.test_case "condensation labels" `Quick
            test_condensation_labels;
        ] );
    ]
