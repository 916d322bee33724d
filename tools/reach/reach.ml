(* Which exported values does a path still reach?

   [reach ROOT [CEILING]] reads the .cmt and .cmti files that
   [dune build @check] writes under the build context ROOT (for this
   repository, [_build/default]) and classifies every [val] of every
   [lib/**/*.mli] as

   - reached: named from another compilation unit under [lib/],
     [bin/], [bench/] or [examples/];
   - test-only: named from another unit under [test/] only;
   - unreferenced: named from no other unit.

   A value counts by path, not by name: every [Texp_ident] is resolved
   through dune's wrapped-library alias modules ([Om_expr.Vm] is
   [Om_expr__Vm]), re-exporting modules ([module Vm = Om_expr.Vm] in
   [Objectmath]), structure-level [module X = ...] and expression-level
   [let module X = ...] aliases; opens are already resolved by the type
   checker.  Only direct references count: a value that is named only by
   a function nothing calls is still reached.

   With a CEILING file (lines [test-only N] and [unreferenced N]) the
   exit code is 1 when either count is above its ceiling, so the counts
   can only fall. *)

open Typedtree

type side = Reached | Test_only

(* Module paths are dot-joined segments.  A segment for a module bound
   inside a unit is [%Unit/Name_stamp], which no source name can
   spell. *)

let aliases : (string, string) Hashtbl.t = Hashtbl.create 512

(* Each reference: the module path and the value's name as written,
   the referring unit and its side. *)
let refs : (string * string * string * side) list ref = ref []

let local unit id = Printf.sprintf "%%%s/%s" unit (Ident.unique_name id)

let rec path unit = function
  | Path.Pident id when Ident.global id -> Ident.name id
  | Path.Pident id -> local unit id
  | Path.Pdot (p, s) -> path unit p ^ "." ^ s
  | Path.Papply _ | Path.Pextra_ty _ -> "%apply"

let rec strip me =
  match me.mod_desc with Tmod_constraint (me, _, _, _) -> strip me | _ -> me

(* Walks one implementation.  [public] is the path under which other
   units see the structure being walked, [None] inside functors and
   expressions. *)
let scan ~unit ~side str =
  let public = ref (Some unit) in
  let bind id me ~public_name =
    let key = local unit id in
    match (strip me).mod_desc with
    | Tmod_ident (p, _) ->
        let target = path unit p in
        Hashtbl.replace aliases key target;
        Option.iter (fun k -> Hashtbl.replace aliases k target) public_name
    | Tmod_structure _ ->
        Option.iter (fun k -> Hashtbl.replace aliases key k) public_name
    | _ -> ()
  in
  let module_binding self mb =
    let outer = !public in
    let inner =
      match (mb.mb_id, outer) with
      | Some id, Some p -> Some (p ^ "." ^ Ident.name id)
      | _ -> None
    in
    Option.iter (fun id -> bind id mb.mb_expr ~public_name:inner) mb.mb_id;
    (public :=
       match (strip mb.mb_expr).mod_desc with
       | Tmod_structure _ -> inner
       | _ -> None);
    Tast_iterator.default_iterator.module_binding self mb;
    public := outer
  in
  let expr self e =
    (match e.exp_desc with
    | Texp_ident (Path.Pdot (m, v), _, _) ->
        refs := (path unit m, v, unit, side) :: !refs
    | Texp_letmodule (Some id, _, _, me, _) -> bind id me ~public_name:None
    | _ -> ());
    let outer = !public in
    public := None;
    Tast_iterator.default_iterator.expr self e;
    public := outer
  in
  let it = { Tast_iterator.default_iterator with module_binding; expr } in
  it.structure it str

(* Rewrites a module path through the aliases, one segment at a time
   from the left. *)
let resolve m =
  let rec go depth acc = function
    | [] -> acc
    | s :: rest -> (
        let here = if acc = "" then s else acc ^ "." ^ s in
        match Hashtbl.find_opt aliases here with
        | Some target when depth < 64 ->
            let target = go (depth + 1) "" (String.split_on_char '.' target) in
            go (depth + 1) target rest
        | _ -> go depth here rest)
  in
  go 0 "" (String.split_on_char '.' m)

(* The exports of one interface: ([Unit.path.value], source). *)
let exports ~unit ~source sg =
  let out = ref [] in
  let rec signature prefix sg = List.iter (item prefix) sg.sig_items
  and item prefix si =
    match si.sig_desc with
    | Tsig_value vd -> out := (prefix ^ "." ^ vd.val_name.txt, source) :: !out
    | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
        signature (prefix ^ "." ^ Ident.name id) sg
    | _ -> ()
  in
  signature unit sg;
  List.rev !out

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let f = Filename.concat dir f in
         if Sys.is_directory f then files f else [ f ])

(* "Om_expr__Vm.exec" reads "Vm.exec". *)
let display key =
  let unit, rest =
    match String.index_opt key '.' with
    | Some i -> (String.sub key 0 i, String.sub key i (String.length key - i))
    | None -> (key, "")
  in
  let rec last_part i s =
    if i + 2 > String.length s then s
    else if String.sub s i 2 = "__" then
      last_part 0 (String.sub s (i + 2) (String.length s - i - 2))
    else last_part (i + 1) s
  in
  last_part 0 unit ^ rest

let read_ceiling file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ k; n ] -> Some (k, int_of_string n)
         | _ -> None)

let () =
  let root, ceiling =
    match Sys.argv with
    | [| _; root |] -> (root, None)
    | [| _; root; c |] -> (root, Some c)
    | _ ->
        prerr_endline "usage: reach ROOT [CEILING]";
        exit 2
  in
  let sections =
    [
      ("lib", Reached);
      ("bin", Reached);
      ("bench", Reached);
      ("examples", Reached);
      ("test", Test_only);
    ]
  in
  let exported = ref [] in
  List.iter
    (fun (section, side) ->
      let dir = Filename.concat root section in
      if Sys.file_exists dir then
        List.iter
          (fun file ->
            match Filename.extension file with
            | ".cmt" -> (
                let cmt = Cmt_format.read_cmt file in
                match cmt.cmt_annots with
                | Implementation str -> scan ~unit:cmt.cmt_modname ~side str
                | _ -> ())
            | ".cmti" when section = "lib" -> (
                let cmt = Cmt_format.read_cmt file in
                match (cmt.cmt_annots, cmt.cmt_sourcefile) with
                | Interface sg, Some source ->
                    exported :=
                      exports ~unit:cmt.cmt_modname ~source sg @ !exported
                | _ -> ())
            | _ -> ())
          (files dir))
    sections;
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (m, v, unit, side) ->
      let m = resolve m in
      let key = m ^ "." ^ v in
      let owner = List.hd (String.split_on_char '.' m) in
      if owner <> unit && Hashtbl.find_opt seen key <> Some Reached then
        Hashtbl.replace seen key side)
    !refs;
  let exported = List.sort compare !exported in
  let pick s =
    List.filter (fun (k, _) -> Hashtbl.find_opt seen k = s) exported
  in
  let test_only = pick (Some Test_only) and unreferenced = pick None in
  let n = List.length in
  Printf.printf
    "reach: %d values exported by lib/**/*.mli: %d reached, %d test-only, %d \
     unreferenced\n"
    (n exported)
    (n exported - n test_only - n unreferenced)
    (n test_only) (n unreferenced);
  let show what l =
    List.iter (fun (k, src) -> Printf.printf "%-12s %-40s %s\n" what (display k) src) l
  in
  show "unreferenced" unreferenced;
  show "test-only" test_only;
  match ceiling with
  | None -> ()
  | Some file ->
      let limits = read_ceiling file in
      let over =
        List.filter_map
          (fun (name, count) ->
            match List.assoc_opt name limits with
            | Some limit when count <= limit -> None
            | Some limit ->
                Some (Printf.sprintf "%d %s exports, ceiling %d" count name limit)
            | None -> Some (Printf.sprintf "no %s ceiling" name))
          [ ("test-only", n test_only); ("unreferenced", n unreferenced) ]
      in
      List.iter (fun m -> Printf.eprintf "reach: %s: %s\n" file m) over;
      if over <> [] then exit 1
