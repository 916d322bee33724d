module E = Om_expr.Expr
module Smap = Map.Make (String)

type binding = { name : string; expr : E.t }

type block = {
  temps : binding list;
  roots : (string * E.t) list;
}

let extractable e =
  match e with
  | E.Const _ | E.Var _ -> false
  | E.Add _ | E.Mul _ | E.Pow _ | E.Call _ | E.If _ -> true

(* All rewriting below goes through [E.map_exact]: the smart constructors
   keep n-ary [Add]/[Mul] operands sorted, so replacing an extracted
   subtree with its temp variable (whose sort position differs from the
   subtree's) would reorder the operand list — and reordering a
   left-to-right float fold is a reassociation that can change the result
   by an ulp.  An order-preserving swap of a subtree for a variable bound
   to its value is exactly value-preserving, which the differential fuzz
   oracle relies on: every backend must reproduce the tree-walk
   interpreter bitwise. *)
let subst_exact = E.map_exact

(* Subtrees keyed by their stored structural hash, compared with
   [E.equal] only when the hashes agree. *)
module Keyed = Hashtbl.Make (struct
  type t = E.t

  let equal = E.equal
  let hash = E.hash
end)

(* A candidate subtree: its occurrence count, its size, and its last
   occurrence with that occurrence's pre-order position. *)
type candidate = {
  mutable count : int;
  size : int;
  mutable last : E.t;
  mutable pos : int;
}

let eliminate ?(min_size = 3) ?(min_count = 2) ?(prefix = "cse$") targets =
  (* Pass 1: count syntactic occurrences of every candidate subtree.  One
     pre-order walk numbers every tree node and records its size,
     computed from the children's, so no subtree is walked twice; pass 2
     reads them back to rewrite. *)
  let total = List.fold_left (fun n (_, e) -> n + E.size e) 0 targets in
  let sizes = Array.make total 0 in
  let counts = Keyed.create 256 in
  let next = ref 0 in
  let rec count e =
    let i = !next in
    incr next;
    List.iter count (E.children e);
    let size = !next - i in
    sizes.(i) <- size;
    if extractable e && size >= min_size then begin
      match Keyed.find_opt counts e with
      | Some c ->
          c.count <- c.count + 1;
          c.last <- e;
          c.pos <- i
      | None -> Keyed.add counts e { count = 1; size; last = e; pos = i }
    end
  in
  List.iter (fun (_, e) -> count e) targets;
  let shared =
    Keyed.fold
      (fun _ c acc -> if c.count >= min_count then c :: acc else acc)
      counts []
    |> List.sort (fun a b ->
           let c = Int.compare a.size b.size in
           if c <> 0 then c else E.compare a.last b.last)
  in
  (* Pass 2: name the shared subtrees smallest-first, so each definition
     can refer to already-named smaller temps. *)
  let names = Keyed.create 64 in
  let defs =
    List.mapi
      (fun i c ->
        let name = prefix ^ string_of_int i in
        Keyed.add names c.last name;
        (name, c))
      shared
  in
  (* The node [e] at pre-order position [i], its named subtrees replaced
     by their temps, outermost first. *)
  let rec rewrite e i =
    let named =
      if extractable e && sizes.(i) >= min_size then
        Keyed.find_opt names e
      else None
    in
    match named with
    | Some name -> E.var name
    | None -> rewrite_children e i
  and rewrite_children e i =
    let j = ref (i + 1) in
    E.replace_children e
      (List.map
         (fun c ->
           let k = !j in
           j := k + sizes.(k);
           rewrite c k)
         (E.children e))
  in
  let temps =
    List.map
      (fun (name, c) -> { name; expr = rewrite_children c.last c.pos })
      defs
  in
  let roots =
    let start = ref 0 in
    List.map
      (fun (t, e) ->
        let i = !start in
        start := i + sizes.(i);
        (t, rewrite e i))
      targets
  in
  (* Pass 3: inline temps used at most once (their single consumer absorbs
     the definition) — extraction counts occurrences before substitution,
     so a subtree appearing only inside one bigger shared subtree would
     otherwise survive as a single-use temporary. *)
  let uses = Hashtbl.create 64 in
  let record_uses e =
    ignore
      (E.fold
         (fun () n ->
           match n with
           | E.Var v when String.starts_with ~prefix v ->
               Hashtbl.replace uses v
                 (1 + Option.value ~default:0 (Hashtbl.find_opt uses v))
           | _ -> ())
         () e)
  in
  List.iter (fun b -> record_uses b.expr) temps;
  List.iter (fun (_, e) -> record_uses e) roots;
  let dropped = ref Smap.empty in
  let resolve e =
    subst_exact
      (function E.Var v -> Smap.find_opt v !dropped | _ -> None)
      e
  in
  let kept =
    List.filter_map
      (fun b ->
        let u = Option.value ~default:0 (Hashtbl.find_opt uses b.name) in
        let expr = resolve b.expr in
        if u <= 1 then begin
          dropped := Smap.add b.name expr !dropped;
          None
        end
        else Some { b with expr })
      temps
  in
  let roots = List.map (fun (t, e) -> (t, resolve e)) roots in
  (* Renumber the kept temps densely. *)
  let renaming = Hashtbl.create 64 in
  List.iteri
    (fun i b ->
      Hashtbl.replace renaming b.name (E.var (prefix ^ string_of_int i)))
    kept;
  let rn e =
    subst_exact
      (function E.Var v -> Hashtbl.find_opt renaming v | _ -> None)
      e
  in
  let temps =
    List.mapi
      (fun i b -> { name = prefix ^ string_of_int i; expr = rn b.expr })
      kept
  in
  let roots = List.map (fun (t, e) -> (t, rn e)) roots in
  { temps; roots }

let temp_count b = List.length b.temps

let block_cost b =
  List.fold_left (fun acc t -> acc +. Om_expr.Cost.flops_mean t.expr) 0. b.temps
  +. List.fold_left
       (fun acc (_, e) -> acc +. Om_expr.Cost.flops_mean e)
       0. b.roots

let inline b =
  let resolved =
    List.fold_left
      (fun m t -> Smap.add t.name (Om_expr.Subst.apply_map m t.expr) m)
      Smap.empty b.temps
  in
  List.map (fun (t, e) -> (t, Om_expr.Subst.apply_map resolved e)) b.roots

let verify_no_forward_refs b =
  let all_temps = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.add all_temps t.name ()) b.temps;
  let defined = Hashtbl.create 16 in
  List.for_all
    (fun t ->
      let ok =
        List.for_all
          (fun v -> (not (Hashtbl.mem all_temps v)) || Hashtbl.mem defined v)
          (E.vars t.expr)
      in
      Hashtbl.add defined t.name ();
      ok)
    b.temps
