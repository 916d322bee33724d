type report = {
  isolated : string list;
  sources : string list;
  sinks : string list;
  largest_scc_share : float;
}

let analyse (m : Om_lang.Flat_model.t) =
  let g = Om_lang.Flat_model.dependency_graph m in
  let comps = Om_graph.Scc.tarjan g in
  let n = Om_graph.Digraph.node_count g in
  let name v = Om_graph.Digraph.label g v in
  let isolated = ref [] and sources = ref [] and sinks = ref [] in
  List.iter
    (fun v ->
      let out_deg =
        List.length (List.filter (fun w -> w <> v) (Om_graph.Digraph.succ g v))
      in
      let in_deg =
        List.length (List.filter (fun w -> w <> v) (Om_graph.Digraph.pred g v))
      in
      if out_deg = 0 && in_deg = 0 then isolated := name v :: !isolated
      else if in_deg = 0 then sources := name v :: !sources
      else if out_deg = 0 then sinks := name v :: !sinks)
    (Om_graph.Digraph.nodes g);
  let largest =
    Array.fold_left
      (fun acc members -> max acc (List.length members))
      0 comps.members
  in
  {
    isolated = List.rev !isolated;
    sources = List.rev !sources;
    sinks = List.rev !sinks;
    largest_scc_share =
      (if n = 0 then 0. else float_of_int largest /. float_of_int n);
  }

let pp ppf r =
  let plist ppf = function
    | [] -> Fmt.string ppf "(none)"
    | l -> Fmt.string ppf (String.concat ", " l)
  in
  Fmt.pf ppf "isolated states:   %a@." plist r.isolated;
  Fmt.pf ppf "driven inputs:     %a@." plist r.sources;
  Fmt.pf ppf "pure observers:    %a@." plist r.sinks;
  Fmt.pf ppf "largest SCC share: %.0f%%@." (100. *. r.largest_scc_share)
