module A = Om_lang.Ast
module E = Om_expr.Expr

let nopos : A.pos = { line = 0; col = 0 }
let letter k = String.make 1 (Char.chr (Char.code 'a' + (k mod 26)))
let pick rng l = List.nth l (Random.State.int rng (List.length l))
let chance rng p = Random.State.float rng 1.0 < p

(* Constants are multiples of 0.25 in [0.25, 2]; negative values are
   emitted as [Sneg] so the surface text matches what the parser builds,
   and -0.0 can never appear as an initial value (the bitwise trajectory
   oracle relies on states never being minus zero). *)
let gen_mag rng = float_of_int (1 + Random.State.int rng 8) /. 4.

let gen_const rng : A.sexpr =
  let m = A.Snum (gen_mag rng) in
  if chance rng 0.4 then A.Sneg m else m

(* A pure-constant expression: safe anywhere a parameter value must
   reduce to a number (defaults, [extends with] rebinds, part and
   instance parameter bindings). *)
let rec gen_const_expr rng depth : A.sexpr =
  if depth <= 0 || chance rng 0.5 then gen_const rng
  else
    let op = pick rng [ A.Badd; A.Bsub; A.Bmul ] in
    A.Sbin (op, gen_const_expr rng (depth - 1), gen_const_expr rng (depth - 1))

let name_of segs : A.name =
  { segments = List.map (fun b -> { A.base = b; index = None }) segs }

(* ------------------------------------------------------------------ *)
(* Expression grammar.

   Bounded depth and NaN-safe by construction: divisions get a
   denominator of the form [1.5 + a*a], [log]/[sqrt] arguments are
   shifted squares, [exp] only sees negated squares, and powers are
   integer squares/cubes of atoms.  Trajectories can still overflow to
   infinity for explosive polynomial dynamics; the oracle discards the
   (rare) non-finite cases rather than restricting the grammar to
   contractive systems. *)

let rec gen_expr rng ~refs depth : A.sexpr =
  let atom () =
    if refs = [] || chance rng 0.35 then gen_const rng else pick rng refs
  in
  if depth <= 0 then atom ()
  else
    let sub () = gen_expr rng ~refs (depth - 1) in
    match Random.State.int rng 13 with
    | 0 | 1 -> A.Sbin (A.Badd, sub (), sub ())
    | 2 -> A.Sbin (A.Bsub, sub (), sub ())
    | 3 | 4 -> A.Sbin (A.Bmul, sub (), sub ())
    | 5 ->
        let a = atom () in
        A.Sbin
          (A.Bdiv, sub (), A.Sbin (A.Badd, A.Snum 1.5, A.Sbin (A.Bmul, a, a)))
    | 6 -> A.Sneg (sub ())
    | 7 ->
        A.Sbin
          (A.Bpow, atom (), A.Snum (if chance rng 0.5 then 2. else 3.))
    | 8 ->
        A.Scall (pick rng [ "sin"; "cos"; "tanh"; "atan"; "abs" ], [ sub () ])
    | 9 ->
        A.Scall (pick rng [ "min"; "max"; "hypot"; "atan2" ], [ sub (); sub () ])
    | 10 -> (
        let a = atom () in
        match Random.State.int rng 3 with
        | 0 -> A.Scall ("exp", [ A.Sneg (A.Sbin (A.Bpow, a, A.Snum 2.)) ])
        | 1 ->
            A.Scall
              ("log", [ A.Sbin (A.Badd, A.Snum 1.5, A.Sbin (A.Bpow, a, A.Snum 2.)) ])
        | _ ->
            A.Scall
              ( "sqrt",
                [ A.Sbin (A.Badd, A.Snum 0.25, A.Sbin (A.Bpow, a, A.Snum 2.)) ]
              ))
    | _ ->
        A.Sif
          ( {
              sc_lhs = sub ();
              sc_rel = pick rng [ E.Lt; E.Le; E.Gt; E.Ge ];
              sc_rhs = sub ();
            },
            sub (),
            sub () )

(* ------------------------------------------------------------------ *)
(* Class generation.  Each class carries enough metadata to build
   well-typed references: the effective (inherited-inclusive) variables,
   parameters, aliases, imports and parts, plus the total flat state
   count one instance expands to. *)

type cls = {
  cname : string;
  vars : string list;
  params : string list;
  aliases : string list;
  imports : string list;  (** free names every instantiation must bind *)
  parts : (string * string) list;  (** part name, part class *)
  nstates : int;
}

let find_cls infos n = List.find (fun c -> c.cname = n) infos

(* References usable inside the body of a class: locals, one level of
   part state paths, and time. *)
let class_refs info infos : A.sexpr list =
  let local n = A.Sname (name_of [ n ]) in
  List.map local (info.vars @ info.params @ info.aliases @ info.imports)
  @ List.concat_map
      (fun (pname, pcls) ->
        List.map (fun v -> A.Sname (name_of [ pname; v ])) (find_cls infos pcls).vars)
      info.parts
  @ [ A.Sname (name_of [ "time" ]) ]

let gen_class rng ~idx ~(infos : cls list) : cls * A.class_def =
  let tag = letter idx in
  let fresh prefix n = List.init n (fun j -> prefix ^ tag ^ letter j) in
  let parent =
    if infos <> [] && chance rng 0.4 then Some (pick rng infos) else None
  in
  let inh_vars = match parent with Some p -> p.vars | None -> [] in
  let inh_params = match parent with Some p -> p.params | None -> [] in
  let inh_aliases = match parent with Some p -> p.aliases | None -> [] in
  let inh_imports = match parent with Some p -> p.imports | None -> [] in
  let inh_parts = match parent with Some p -> p.parts | None -> [] in
  let inh_nstates = match parent with Some p -> p.nstates | None -> 0 in
  let n_own_vars =
    match parent with
    | None -> 1 + Random.State.int rng 3
    | Some _ -> Random.State.int rng 3
  in
  let own_vars = fresh "v" n_own_vars in
  let own_params = fresh "p" (Random.State.int rng 3) in
  let own_aliases = fresh "q" (Random.State.int rng 2) in
  let own_imports = if chance rng 0.35 then fresh "u" 1 else [] in
  (* One optional part, drawn from small already-generated classes. *)
  let own_parts =
    let candidates =
      List.filter (fun c -> c.nstates + inh_nstates + n_own_vars <= 10) infos
    in
    if candidates <> [] && chance rng 0.4 then
      [ ("r" ^ tag ^ "a", (pick rng candidates).cname) ]
    else []
  in
  let info =
    {
      cname = "C" ^ tag;
      vars = inh_vars @ own_vars;
      params = inh_params @ own_params;
      aliases = inh_aliases @ own_aliases;
      imports = inh_imports @ own_imports;
      parts = inh_parts @ own_parts;
      nstates =
        inh_nstates + n_own_vars
        + List.fold_left
            (fun acc (_, pcls) -> acc + (find_cls infos pcls).nstates)
            0 own_parts;
    }
  in
  let refs = class_refs info infos in
  (* Alias bodies may reference anything except other aliases, keeping
     definition expansion single-level (no exponential blowup). *)
  let alias_refs =
    List.filter
      (function
        | A.Sname { segments = [ { base; _ } ] } ->
            not (List.mem base info.aliases)
        | _ -> true)
      refs
  in
  let params_so_far = ref inh_params in
  let param_members =
    List.map
      (fun p ->
        let default =
          if !params_so_far <> [] && chance rng 0.3 then
            A.Sbin
              ( A.Bmul,
                A.Sname (name_of [ pick rng !params_so_far ]),
                gen_const rng )
          else gen_const_expr rng 1
        in
        params_so_far := p :: !params_so_far;
        A.Parameter (p, default))
      own_params
  in
  let var_members =
    List.map
      (fun v ->
        let init =
          if info.params <> [] && chance rng 0.25 then
            A.Sname (name_of [ pick rng info.params ])
          else gen_const rng
        in
        A.Variable (v, init))
      own_vars
  in
  let alias_members =
    List.map
      (fun a -> A.Alias (a, gen_expr rng ~refs:alias_refs 1))
      own_aliases
  in
  let part_members =
    List.map
      (fun (pname, pcls) ->
        let pc = find_cls infos pcls in
        let import_binds =
          List.map (fun u -> (u, gen_expr rng ~refs 1)) pc.imports
        in
        let param_binds =
          if pc.params <> [] && chance rng 0.4 then
            [ (pick rng pc.params, gen_const_expr rng 1) ]
          else []
        in
        A.Part (pname, pcls, import_binds @ param_binds))
      own_parts
  in
  let eq_members =
    List.map (fun v -> A.Equation (v, gen_expr rng ~refs (1 + Random.State.int rng 3)))
      own_vars
  in
  (* Optionally override one inherited equation. *)
  let override =
    if inh_vars <> [] && chance rng 0.4 then
      [ A.Equation (pick rng inh_vars, gen_expr rng ~refs (1 + Random.State.int rng 2)) ]
    else []
  in
  let parent_decl =
    match parent with
    | None -> None
    | Some p ->
        let rebinds =
          if p.params <> [] && chance rng 0.5 then
            [ (pick rng p.params, gen_const_expr rng 1) ]
          else []
        in
        Some (p.cname, rebinds)
  in
  ( info,
    {
      A.cname = info.cname;
      parent = parent_decl;
      members =
        param_members @ var_members @ alias_members @ part_members
        @ eq_members @ override;
      cpos = nopos;
    } )

(* ------------------------------------------------------------------ *)
(* Instances.  Walk the flat state/definition paths of earlier
   instances so imports can be bound to them (cross-instance coupling,
   exactly what the paper's bearing model does between rollers). *)

let rec flat_paths infos (c : cls) prefix : A.name list =
  let own =
    List.map
      (fun v -> { A.segments = prefix @ [ { A.base = v; index = None } ] })
      c.vars
  in
  let parts =
    List.concat_map
      (fun (pname, pcls) ->
        flat_paths infos (find_cls infos pcls)
          (prefix @ [ { A.base = pname; index = None } ]))
      c.parts
  in
  own @ parts

let gen_instances rng infos : A.instance_def list =
  let budget = ref 24 in
  let paths : A.name list ref = ref [] in
  let insts = ref [] in
  let n = 1 + Random.State.int rng 3 in
  for k = 0 to n - 1 do
    let candidates = List.filter (fun c -> c.nstates <= !budget) infos in
    if candidates <> [] then begin
      let c = pick rng candidates in
      let iname = "m" ^ letter k in
      let range =
        if chance rng 0.3 then
          let copies = 1 + Random.State.int rng (min 3 (!budget / c.nstates)) in
          Some (1, copies)
        else None
      in
      let is_array = range <> None in
      let bind_import u =
        let choices =
          [ `Const ]
          @ (if !paths <> [] then [ `Path; `Path ] else [])
          @ if is_array then [ `Index ] else []
        in
        let v =
          match pick rng choices with
          | `Const -> gen_const_expr rng 1
          | `Path -> A.Sname (pick rng !paths)
          | `Index ->
              A.Sbin (A.Bmul, A.Sname (name_of [ "index" ]), A.Snum 0.5)
        in
        (u, v)
      in
      let param_binds =
        if c.params <> [] && chance rng 0.3 then
          [ ( pick rng c.params,
              if is_array && chance rng 0.5 then
                A.Sbin
                  (A.Badd, A.Snum 1., A.Sbin (A.Bmul, A.Sname (name_of [ "index" ]), A.Snum 0.25))
              else gen_const_expr rng 1 ) ]
        else []
      in
      let ibindings = List.map bind_import c.imports @ param_binds in
      insts :=
        { A.iname; range; icls = c.cname; ibindings; ipos = nopos } :: !insts;
      let copies = match range with None -> 1 | Some (lo, hi) -> hi - lo + 1 in
      budget := !budget - (copies * c.nstates);
      let prefixes =
        match range with
        | None -> [ [ { A.base = iname; index = None } ] ]
        | Some (lo, hi) ->
            List.init (hi - lo + 1) (fun i ->
                [ { A.base = iname; index = Some (A.Snum (float_of_int (lo + i))) } ])
      in
      paths :=
        !paths @ List.concat_map (fun p -> flat_paths infos c p) prefixes
    end
  done;
  List.rev !insts

(* ------------------------------------------------------------------ *)

let model rng : A.model =
  let n_classes = 2 + Random.State.int rng 3 in
  let infos = ref [] in
  let classes = ref [] in
  for idx = 0 to n_classes - 1 do
    let info, cdef = gen_class rng ~idx ~infos:!infos in
    infos := !infos @ [ info ];
    classes := !classes @ [ cdef ]
  done;
  let instances = gen_instances rng !infos in
  { A.mname = "Fuzzed"; classes = !classes; instances }

let source rng = Om_lang.Unparse.model (model rng)

let stiff_model ?(rate = 2000.) () : A.model =
  let v n = A.Sname (name_of [ n ]) in
  {
    A.mname = "Stiff";
    classes =
      [
        {
          A.cname = "S";
          parent = None;
          members =
            [
              A.Parameter ("k", A.Snum rate);
              A.Variable ("x", A.Snum 1.);
              A.Variable ("y", A.Snum 0.);
              (* Fast relaxation of x onto the slow manifold cos(t),
                 with y trailing x: stiff once the transient decays. *)
              A.Equation
                ( "x",
                  A.Sbin
                    ( A.Bmul,
                      A.Sneg (v "k"),
                      A.Sbin (A.Bsub, v "x", A.Scall ("cos", [ v "time" ])) ) );
              A.Equation ("y", A.Sbin (A.Bsub, v "x", v "y"));
            ];
          cpos = nopos;
        };
      ];
    instances =
      [ { A.iname = "s"; range = None; icls = "S"; ibindings = []; ipos = nopos } ];
  }
