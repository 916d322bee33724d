module A = Om_lang.Ast
module E = Om_expr.Expr
module FM = Om_lang.Flat_model
module R = Objectmath.Runtime

type violation = { invariant : string; detail : string }

type result = {
  dim : int;
  n_tasks : int;
  split : bool;
  lsoda_sequential_only : bool;
  sweep_refused : bool;
  discarded : string option;
  violations : violation list;
}

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.invariant v.detail

(* Integration window shared by every strategy: short enough that even
   explosive polynomial dynamics rarely overflow, long enough to cross
   several semi-dynamic rescheduling periods. *)
let t0 = 0.
let tend = 0.4
let h = 0.025

(* The split threshold of the split-plan strategies, in flop units: low
   enough that an equation with two non-leaf terms splits. *)
let split_threshold = 2.

(* The LSODA strategy's window: the stiffened model's fast transient
   decays in about 0.005, so this is well into the BDF phase. *)
let lsoda_tend = 0.1

let bits = Int64.bits_of_float

let finite_trajectory (tr : Om_ode.Odesys.trajectory) =
  Array.for_all Float.is_finite tr.ts
  && Array.for_all (Array.for_all Float.is_finite) tr.states

(* The raw-equation interpreter: a tree walk over the flat model with a
   hashtable environment, independent of the whole codegen pipeline. *)
let interp_rhs (f : FM.t) =
  let names = FM.state_names f in
  let eqs = Array.of_list f.equations in
  let tbl = Hashtbl.create (Array.length names + 1) in
  fun t y ydot ->
    Array.iteri (fun i n -> Hashtbl.replace tbl n y.(i)) names;
    Hashtbl.replace tbl "t" t;
    Array.iteri (fun i (_, rhs) -> ydot.(i) <- Om_expr.Eval.eval tbl rhs) eqs

let integrate_seq (f : FM.t) rhs =
  let sys =
    Om_ode.Odesys.make ~names:(FM.state_names f) ~dim:(FM.dim f) rhs
  in
  Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 sys ~t0
    ~y0:(FM.initial_values f) ~tend ~h

(* [f] with one fast mode appended, as in [Gen.stiff_model]: a state
   relaxing onto [cos t] at rate 2000.  Once its transient decays LSODA
   switches to BDF, whose Newton matrix reads the Jacobian of every
   equation, the generated ones included.  Generated instance names
   start with [m], so the state's name is fresh. *)
let stiffened (f : FM.t) =
  let s = "fast.x" in
  {
    f with
    states = f.states @ [ (s, 1.) ];
    equations =
      f.equations
      @ [
          ( s,
            E.mul [ E.const (-2000.); E.sub (E.var s) (E.cos (E.var "t")) ] );
        ];
  }

(* ---- sweep --------------------------------------------------------- *)

(* The swept values: the generator's constants lie in [-2, 2]. *)
let sweep_values = [ 0.75; 1.5; -0.5 ]

(* A sweep point and a scalar run are two RKF45 integrations whose step
   sequences differ: a point steps on its own, but its frozen parameter
   states enter the error norm.  So they cannot agree bit for bit, and
   where a conditional switches, the two step over the switch
   differently.  At the solvers' default tolerances that made
   points differ by up to 1.5 (a branch taken on one side only); at
   [sweep_rtol] both runs are tight enough that they agree within
   [sweep_tol], relative to [1 + |x|] (EXPERIMENTS.md: at most 1.3e-7
   over 700 cases). *)
let sweep_rtol = 1e-10

let sweep_tol = 1e-5

(* Whether an instance (of [cls], of a subclass or through a part) takes
   the class default of [param]: with that default an unbound name and a
   state that reads the parameter added to [cls], the model elaborates
   only when every use rebinds the parameter. *)
let default_reached (m : A.model) ~cls ~param =
  let name n = A.Sname (A.name_of_string n) in
  let classes =
    List.map
      (fun (c : A.class_def) ->
        if c.cname <> cls then c
        else
          {
            c with
            members =
              List.map
                (function
                  | A.Parameter (n, _) when n = param ->
                      A.Parameter (n, name "sweep_unbound")
                  | mem -> mem)
                c.members
              @ [
                  A.Variable ("sweep_probe", A.Snum 0.);
                  A.Equation ("sweep_probe", name param);
                ];
          })
      m.classes
  in
  match Om_lang.Flatten.flatten { m with classes } with
  | _ -> false
  | exception Om_lang.Flatten.Error _ -> true

(* A 3-value sweep of one class parameter, picked from the source text,
   either is refused because every use of the class rebinds the
   parameter, or gives at each value every state's final value of a
   scalar [Rk.rkf45] run of the model with the value written in.
   [true] when the sweep was refused. *)
let check_sweep ~violation (m : A.model) src =
  let fail fmt = Printf.ksprintf (violation "sweep") fmt in
  let targets =
    List.concat_map
      (fun (c : A.class_def) ->
        List.filter_map
          (function A.Parameter (n, _) -> Some (c.cname, n) | _ -> None)
          c.members)
      m.classes
  in
  let scalar ~cls ~param v =
    let f =
      Om_lang.Flatten.flatten (Om_lang.Override.set_parameter m ~cls ~param v)
    in
    let sys = Om_ode.Odesys.of_equations f.equations in
    ( FM.state_names f,
      Om_ode.Odesys.final_state
        (Om_ode.Rk.rkf45 ~atol:sweep_rtol ~rtol:sweep_rtol sys ~t0
           ~y0:(FM.initial_values f) ~tend) )
  in
  match targets with
  | [] -> false
  | _ -> (
      let cls, param =
        List.nth targets (Hashtbl.hash src mod List.length targets)
      in
      let what = Printf.sprintf "%s.%s" cls param in
      let reached = default_reached m ~cls ~param in
      match List.map (scalar ~cls ~param) sweep_values with
      | exception _ -> false
      | refs
        when not
               (List.for_all (fun (_, y) -> Array.for_all Float.is_finite y) refs)
        ->
          false
      | refs -> (
          let names = fst (List.hd refs) in
          match
            Objectmath.Sweep.run ~source:src ~cls ~param ~values:sweep_values
              ~tend ~atol:sweep_rtol ~rtol:sweep_rtol ~states:names ()
          with
          | exception Om_lang.Override.Shadowed why ->
              if reached then
                fail "%s refused (%s), but an instance takes its default"
                  what why;
              true
          | exception exn ->
              fail "%s raised %s" what (Printexc.to_string exn);
              false
          | points ->
              if not reached then
                fail "%s: every use rebinds it, but the sweep ran" what
              else
                List.iter2
                  (fun v ((_, reference), got) ->
                    Array.iteri
                      (fun i x ->
                        if
                          not
                            (Float.abs (got.(i) -. x)
                            <= sweep_tol *. (1. +. Float.abs x))
                        then
                          fail "%s = %g: %s is %.17g, scalar run %.17g"
                            what v names.(i) got.(i) x)
                      reference)
                  sweep_values
                  (List.combine refs
                     (List.map
                        (fun (p : Objectmath.Sweep.point) -> p.finals)
                        points));
              false))

let check ?chaos (m : A.model) : result =
  let vs = ref [] in
  let fail invariant fmt =
    Printf.ksprintf (fun detail -> vs := { invariant; detail } :: !vs) fmt
  in
  let dim = ref 0 and n_tasks = ref 0 and split = ref false in
  let lsoda_sequential_only = ref false in
  let sweep_refused = ref false in
  let discarded = ref None in
  (* ---- unparse → parse round trip ---------------------------------- *)
  let src = Om_lang.Unparse.model m in
  let reparsed =
    match Om_lang.Parser.parse_model src with
    | m2 ->
        let src2 = Om_lang.Unparse.model m2 in
        if src <> src2 then
          fail "roundtrip" "unparse-parse-unparse is not a textual fixpoint";
        Some m2
    | exception Om_lang.Parser.Error (msg, pos) ->
        fail "roundtrip" "generated source does not parse: %s at %d:%d" msg
          pos.line pos.col;
        None
    | exception Om_lang.Lexer.Error (msg, pos) ->
        fail "roundtrip" "generated source does not lex: %s at %d:%d" msg
          pos.line pos.col;
        None
  in
  (* ---- serve journal round trip ------------------------------------ *)
  (* The durability invariant of the serve layer, on this generated
     model: encoding a job as its journal accept record and replaying
     the file must reconstruct exactly the accepted-but-unfinished
     jobs, bit for bit.  Bitwise-identical *execution* of the replayed
     job then follows from the spec carrying the source text verbatim
     plus the pipeline-determinism invariants below.  Also covers the
     torn-tail rule: a byte-truncated final line (the crash's own
     half-written record) is ignored, not a replay error. *)
  (let module J = Om_serve.Job in
   let module Jr = Om_serve.Journal in
   let resolve _ = None in
   let spec ~id ~retries ~chaos =
     {
       J.default with
       J.id;
       tenant = "fuzz";
       priority = String.length src mod 3;
       source = src;
       solver = J.Rk4 (Some h);
       tend;
       chunk = 2;
       retries;
       chaos;
     }
   in
   let s1 = spec ~id:"fz-1" ~retries:1 ~chaos:None in
   let s2 = spec ~id:"fz-2" ~retries:0 ~chaos:None in
   let s3 =
     spec ~id:"fz-3" ~retries:2
       ~chaos:(Some { J.kind = `Nan; task = 0; round = 2; count = 1; attempts = 1 })
   in
   List.iter
     (fun s ->
       if J.of_json ~resolve (J.to_json s) <> Ok s then
         fail "journal" "to_json/of_json is not the identity on %s" s.J.id)
     [ s1; s2; s3 ];
   let path = Filename.temp_file "om_fuzz_journal" ".ndjson" in
   Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
     (fun () ->
       let j = Jr.open_append path in
       ignore (Jr.record_accept j s1);
       ignore (Jr.record_accept j s2);
       ignore (Jr.record_accept j s3);
       Jr.record_state j ~id:"fz-2" ~attempt:1 "running";
       Jr.record_state j ~id:"fz-2" ~attempt:1 ~status:"ok" "done";
       Jr.record_state j ~id:"fz-3" ~attempt:1 ~delay_s:0.01 "retrying";
       Jr.close j;
       (* simulate the crash's torn write: half an accept record *)
       let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
       output_string oc "{\"rec\":\"accept\",\"job\":{\"id\":\"to";
       close_out oc;
       match Jr.replay path with
       | Error msg -> fail "journal" "replay failed: %s" msg
       | Ok r ->
           if not r.Jr.torn_tail then
             fail "journal" "torn final line not detected";
           if r.Jr.accepted <> 3 || r.Jr.completed <> 1 then
             fail "journal" "replay counted %d accepted / %d done (want 3/1)"
               r.Jr.accepted r.Jr.completed;
           if r.Jr.pending <> [ s1; s3 ] then
             fail "journal"
               "replay pending set is not the accepted-minus-terminal jobs \
                in accept order"));
  (* ---- flatten + typecheck ----------------------------------------- *)
  match Om_lang.Flatten.flatten m with
  | exception Om_lang.Flatten.Error msg ->
      fail "flatten" "%s" msg;
      let violations = List.rev !vs in
      {
        dim = 0;
        n_tasks = 0;
        split = false;
        lsoda_sequential_only = false;
        sweep_refused = false;
        discarded = None;
        violations;
      }
  | f ->
      dim := FM.dim f;
      (match Om_lang.Typecheck.check f with
      | () -> ()
      | exception Invalid_argument msg -> fail "typecheck" "%s" msg);
      (* Reparsed source must flatten to the same model. *)
      (match reparsed with
      | None -> ()
      | Some m2 -> (
          match Om_lang.Flatten.flatten m2 with
          | exception Om_lang.Flatten.Error msg ->
              fail "roundtrip" "reparsed model does not flatten: %s" msg
          | f2 ->
              if
                not
                  (List.length f.states = List.length f2.states
                  && List.for_all2
                       (fun (a, x) (b, y) -> a = b && bits x = bits y)
                       f.states f2.states
                  && List.for_all2
                       (fun (a, x) (b, y) -> a = b && E.equal x y)
                       f.equations f2.equations)
              then
                fail "roundtrip" "reparsed model flattens differently"));
      (* ---- flatten idempotence ------------------------------------- *)
      (let fsrc = Om_lang.Unparse.flat_model f in
       match Om_lang.Flatten.flatten_string fsrc with
       | exception Om_lang.Flatten.Error msg ->
           fail "flatten-idempotence" "flat source does not reflatten: %s" msg
       | exception Om_lang.Parser.Error (msg, _) ->
           fail "flatten-idempotence" "flat source does not parse: %s" msg
       | f2 ->
           let ren v =
             if v = "t" then "t" else "m." ^ Om_lang.Unparse.flat_name v
           in
           if
             not
               (List.length f.states = List.length f2.states
               && List.for_all2
                    (fun (a, x) (b, y) -> ren a = b && bits x = bits y)
                    f.states f2.states
               && List.for_all2
                    (fun (a, x) (b, y) ->
                      ren a = b && E.equal (Om_expr.Subst.rename ren x) y)
                    f.equations f2.equations)
           then fail "flatten-idempotence" "reflattened model differs");
      (* ---- SCC / topo consistency ---------------------------------- *)
      let g = FM.dependency_graph f in
      let comps = Om_graph.Scc.tarjan g in
      let n_nodes = Om_graph.Digraph.node_count g in
      let seen = Array.make n_nodes 0 in
      Array.iteri
        (fun c members ->
          List.iter
            (fun v ->
              seen.(v) <- seen.(v) + 1;
              if comps.comp_of.(v) <> c then
                fail "scc" "node %d: comp_of says %d but listed in %d" v
                  comps.comp_of.(v) c)
            members)
        comps.members;
      Array.iteri
        (fun v k ->
          if k <> 1 then
            fail "scc" "node %d appears in %d components" v k)
        seen;
      let cond = Om_graph.Scc.condensation g comps in
      if not (Om_graph.Topo.is_acyclic cond) then
        fail "scc" "condensation has a cycle"
      else begin
        let order = Om_graph.Topo.sort cond in
        let pos = Array.make (Om_graph.Digraph.node_count cond) 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        List.iter
          (fun (a, b) ->
            if pos.(a) >= pos.(b) then
              fail "topo" "order places component %d after its successor %d" a b)
          (Om_graph.Digraph.edges cond)
      end;
      List.iter
        (fun (a, b) ->
          let ka = comps.comp_of.(a) and kb = comps.comp_of.(b) in
          if ka <> kb && not (Om_graph.Digraph.mem_edge cond ka kb) then
            fail "scc" "edge %d->%d lost by the condensation" a b)
        (Om_graph.Digraph.edges g);
      (* ---- Jacobian: symbolic vs numeric, pattern superset, colored
              compression -------------------------------------------- *)
      (match Om_ode.Odesys.of_equations f.equations with
      | exception _ -> ()
      | sys_sym when FM.dim f > 0 -> (
          let jnames = FM.state_names f in
          let y = FM.initial_values f in
          let tprobe = 0.1 in
          match
            ( Om_ode.Jacobian.analytic sys_sym tprobe y,
              Om_ode.Jacobian.numeric sys_sym tprobe y,
              Om_ode.Jacobian.numeric ~eps:(-1e-8) sys_sym tprobe y )
          with
          | exception _ -> ()
          | sym, num, num_bwd ->
              let all_finite =
                Array.for_all (Array.for_all Float.is_finite)
              in
              (* Explosive generated dynamics can overflow at the probe
                 point; the invariant only speaks about finite values. *)
              if all_finite sym && all_finite num then begin
                (* Symbolic and forward-difference Jacobians must agree
                   within the fd truncation error — except at kinks
                   (min/max/abs ties), where the derivative does not
                   exist and the branch conventions legitimately differ.
                   A kink is detected as forward and backward
                   differences disagreeing. *)
                let tol = 2e-3 in
                let agree a b =
                  Float.abs (a -. b)
                  <= tol *. (1. +. Float.abs a +. Float.abs b)
                in
                Array.iteri
                  (fun i row ->
                    Array.iteri
                      (fun j s ->
                        let smooth =
                          Float.is_finite num_bwd.(i).(j)
                          && agree num.(i).(j) num_bwd.(i).(j)
                        in
                        if smooth && not (agree s num.(i).(j)) then
                          fail "jacobian"
                            "d%s/d%s: symbolic %g vs numeric %g" jnames.(i)
                            jnames.(j) s num.(i).(j))
                      row)
                  sym;
                (* The declared read-set pattern must cover every numeric
                   nonzero exactly: a perturbation outside the pattern
                   cannot change f_i, so out-of-pattern differences are
                   identically zero. *)
                (match sys_sym.sparsity with
                | None -> fail "jacobian-pattern" "of_equations lost the pattern"
                | Some pat ->
                    Array.iteri
                      (fun i row ->
                        Array.iteri
                          (fun j v ->
                            if v <> 0. && not (Om_ode.Sparse.mem pat i j)
                            then
                              fail "jacobian-pattern"
                                "numeric nonzero d%s/d%s = %g outside the \
                                 structural pattern"
                                jnames.(i) jnames.(j) v)
                          row)
                      num);
                (* Colored compressed columns must decompress to the
                   dense forward differences bitwise.  Finite differences
                   are the path of a system built from a closure, with
                   a pattern and no symbolic Jacobian. *)
                let sys_fd =
                  Om_ode.Odesys.make ?sparsity:sys_sym.sparsity
                    ~dim:sys_sym.dim sys_sym.f
                in
                match
                  Om_ode.Jacobian.plan ~jac_mode:Om_ode.Odesys.Sparse sys_fd
                with
                | Om_ode.Jacobian.Sparse_plan ctx ->
                    Om_ode.Jacobian.sparse_eval_into sys_fd ctx tprobe y;
                    let pat = ctx.spat in
                    for i = 0 to FM.dim f - 1 do
                      for k = pat.row_ptr.(i) to pat.row_ptr.(i + 1) - 1 do
                        let j = pat.col_ind.(k) in
                        if bits ctx.sj.v.(k) <> bits num.(i).(j) then
                          fail "jacobian-colored"
                            "compressed d%s/d%s: %h differs bitwise from \
                             the uncompressed difference %h"
                            jnames.(i) jnames.(j) ctx.sj.v.(k) num.(i).(j)
                      done
                    done
                | _ -> fail "jacobian-colored" "sparse plan not taken"
              end)
      | _ -> ());
      (* ---- pipeline ------------------------------------------------ *)
      (match Om_codegen.Pipeline.compile f with
      | exception exn ->
          fail "pipeline" "compile raised %s" (Printexc.to_string exn)
      | r ->
          n_tasks := Array.length r.tasks;
          (* ---- schedule validity ----------------------------------- *)
          let check_sched what (s : Om_sched.Lpt.schedule) =
            let n = Array.length r.tasks in
            if Array.length s.assignment <> n then
              fail "schedule" "%s: assignment length %d for %d tasks" what
                (Array.length s.assignment) n;
            Array.iteri
              (fun tid p ->
                if p < 0 || p >= s.nprocs then
                  fail "schedule" "%s: task %d on processor %d of %d" what tid
                    p s.nprocs)
              s.assignment;
            let makespan = Array.fold_left Float.max 0. s.loads in
            if Float.abs (makespan -. s.makespan) > 1e-9 *. Float.max 1. makespan
            then
              fail "schedule" "%s: makespan %g but max load %g" what s.makespan
                makespan;
            let covered = Array.make n 0 in
            for p = 0 to s.nprocs - 1 do
              List.iter
                (fun tid ->
                  covered.(tid) <- covered.(tid) + 1;
                  if s.assignment.(tid) <> p then
                    fail "schedule" "%s: tasks_of %d lists task %d owned by %d"
                      what p tid s.assignment.(tid))
                (Om_sched.Lpt.tasks_of s p)
            done;
            Array.iteri
              (fun tid k ->
                if k <> 1 then
                  fail "schedule" "%s: task %d scheduled %d times" what tid k)
              covered
          in
          List.iter
            (fun nprocs ->
              check_sched
                (Printf.sprintf "lpt-%d" nprocs)
                (Om_sched.Lpt.schedule r.tasks ~nprocs))
            [ 1; 2; 4 ];
          (let sd = Om_sched.Semidynamic.create ~period:2 r.tasks ~nprocs:2 in
           let costs = Array.map (fun t -> t.Om_sched.Task.cost) r.tasks in
           for round = 1 to 5 do
             let measured =
               Array.mapi
                 (fun i c ->
                   Float.max 1. c *. (1.5 +. Float.sin (float_of_int (i + round))))
                 costs
             in
             Om_sched.Semidynamic.observe sd measured;
             check_sched
               (Printf.sprintf "semidynamic-round-%d" round)
               (Om_sched.Semidynamic.current sd)
           done;
           if Om_sched.Semidynamic.reschedule_count sd < 1 then
             fail "schedule" "semidynamic never rescheduled in 5 rounds");
          (* ---- bitwise trajectory identity ------------------------- *)
          (* Every strategy must reproduce the raw-equation interpreter's
             trajectory bit for bit. *)
          let reference = integrate_seq f (interp_rhs f) in
          if not (finite_trajectory reference) then
            discarded := Some "non-finite reference trajectory"
          else begin
            let names = FM.state_names f in
            let compare_traj what (tr : Om_ode.Odesys.trajectory) =
              if Array.length tr.ts <> Array.length reference.ts then
                fail "trajectory" "%s: %d steps, reference has %d" what
                  (Array.length tr.ts)
                  (Array.length reference.ts)
              else begin
                let diverged = ref false in
                Array.iteri
                  (fun k t ->
                    if (not !diverged) && bits t <> bits reference.ts.(k) then begin
                      diverged := true;
                      fail "trajectory" "%s: time diverges at step %d: %h vs %h"
                        what k t reference.ts.(k)
                    end)
                  tr.ts;
                Array.iteri
                  (fun k row ->
                    Array.iteri
                      (fun i x ->
                        if
                          (not !diverged)
                          && bits x <> bits reference.states.(k).(i)
                        then begin
                          diverged := true;
                          fail "trajectory"
                            "%s: state %s diverges at t=%g: %h vs %h" what
                            names.(i) reference.ts.(k) x
                            reference.states.(k).(i)
                        end)
                      row)
                  tr.states
              end
            in
            let strategy what run =
              match run () with
              | tr -> compare_traj what tr
              | exception exn ->
                  fail "trajectory" "%s raised %s" what (Printexc.to_string exn)
            in
            strategy "exec-vm" (fun () ->
                integrate_seq f (Om_codegen.Pipeline.rhs_fn r));
            strategy "exec-vm-nopeephole" (fun () ->
                let rn = Om_codegen.Pipeline.compile ~optimize:false f in
                integrate_seq f (Om_codegen.Pipeline.rhs_fn rn));
            let runtime r what config =
              strategy what (fun () ->
                  (R.execute ~config ~solver:(R.Rk4 h) ~t0 ~tend r).trajectory)
            in
            let semidynamic c = { c with R.scheduling = R.Semidynamic 3 } in
            let simulated = { R.default_config with nworkers = 2 } in
            let domains n = { R.default_config with execution = R.Real_domains n } in
            let configs =
              [
                ("simulated", simulated);
                ("simulated-semidynamic", semidynamic simulated);
                ("real-domains-1", domains 1);
                ("real-domains-2", domains 2);
                ("real-domains-4", domains 4);
                ("real-domains-2-semidynamic", semidynamic (domains 2));
              ]
            in
            List.iter (fun (what, config) -> runtime r what config) configs;
            let diverges names (a : Om_ode.Odesys.trajectory)
                (b : Om_ode.Odesys.trajectory) =
              if Array.length a.ts <> Array.length b.ts then
                Some
                  (Printf.sprintf "%d steps vs %d" (Array.length a.ts)
                     (Array.length b.ts))
              else begin
                let d = ref None in
                Array.iteri
                  (fun k t ->
                    if !d = None && bits t <> bits b.ts.(k) then
                      d :=
                        Some
                          (Printf.sprintf "time at step %d: %h vs %h" k t
                             b.ts.(k)))
                  a.ts;
                Array.iteri
                  (fun k row ->
                    Array.iteri
                      (fun i x ->
                        if !d = None && bits x <> bits b.states.(k).(i) then
                          d :=
                            Some
                              (Printf.sprintf "state %s at t=%g: %h vs %h"
                                 names.(i) b.ts.(k) x b.states.(k).(i)))
                      row)
                  a.states;
                !d
              end
            in
            (* ---- one stiff path: the runtime's LSODA ≡ Odesys' ------ *)
            (* The runtime attaches the model's symbolic Jacobian to every
               system it integrates, so its LSODA must reproduce
               [Odesys.of_equations] plus [Lsoda.integrate] bit for bit,
               under [Auto] and [Sparse].  It runs on the stiffened model,
               whose BDF phase reads the Jacobian of every equation.  A
               reference run that fails or leaves the finite range has
               nothing to compare. *)
            let fs = stiffened f in
            let lsoda_refs =
              List.filter_map
                (fun (mode, jac_mode) ->
                  match
                    Om_ode.Lsoda.integrate ~jac_mode
                      (Om_ode.Odesys.of_equations fs.equations)
                      ~t0 ~y0:(FM.initial_values fs) ~tend:lsoda_tend
                  with
                  | r when finite_trajectory r.trajectory ->
                      Some (mode, jac_mode, r.trajectory)
                  | _ | (exception _) -> None)
                [
                  ("auto", Om_ode.Odesys.Auto);
                  ("sparse", Om_ode.Odesys.Sparse);
                ]
            in
            let lsoda what m execution refs =
              List.iter
                (fun (mode, jac_mode, (reference : Om_ode.Odesys.trajectory)) ->
                  let what = Printf.sprintf "lsoda-%s-%s" what mode in
                  let config = { R.default_config with execution; jac_mode } in
                  match
                    R.execute_model ~config ~solver:R.Lsoda ~t0
                      ~tend:lsoda_tend (Lazy.force m)
                  with
                  | rep -> (
                      match
                        diverges (FM.state_names fs) rep.trajectory reference
                      with
                      | Some d -> fail "lsoda" "%s: %s" what d
                      | None -> ())
                  | exception exn ->
                      fail "lsoda" "%s raised %s" what
                        (Printexc.to_string exn))
                refs
            in
            lsoda "real-domains-0"
              (lazy (Om_codegen.Pipeline.model_of_flat fs))
              (R.Real_domains 0) lsoda_refs;
            (* On worker domains every RHS call is a barrier round, so a
               run of many thousand steps costs tens of seconds there: such
               a reference is checked sequentially only, and the case is
               counted as such. *)
            let lsoda_short, lsoda_long =
              List.partition
                (fun (_, _, (r : Om_ode.Odesys.trajectory)) ->
                  Array.length r.ts <= 5_000)
                lsoda_refs
            in
            lsoda_sequential_only := lsoda_long <> [];
            (* ---- split plan: hoisting is exact ----------------------- *)
            (* The model compiled with a low split threshold, so that its
               equations split into partials and residuals: each
               trajectory must be the tree interpreter's bit for bit. *)
            (match
               Om_codegen.Pipeline.compile
                 ~config:
                   { Om_codegen.Pipeline.default_config with split_threshold }
                 f
             with
            | exception exn ->
                fail "split" "compile raised %s" (Printexc.to_string exn)
            | rs ->
                split := rs.plan.n_partials > 0;
                strategy "split-sequential" (fun () ->
                    integrate_seq f (Om_codegen.Pipeline.rhs_fn rs));
                List.iter
                  (fun what ->
                    runtime rs ("split-" ^ what)
                      (List.assoc what configs))
                  [
                    "simulated"; "real-domains-1"; "real-domains-2";
                    "real-domains-2-semidynamic";
                  ];
                lsoda "split-real-domains-2"
                  (lazy
                    (Om_codegen.Pipeline.of_result
                       (Om_codegen.Pipeline.compile
                          ~config:
                            { Om_codegen.Pipeline.default_config with
                              split_threshold }
                          fs)))
                  (R.Real_domains 2) lsoda_short);
            (* ---- batched ensemble: every member ≡ its scalar run ---- *)
            let batch y0s =
              let bb =
                Om_codegen.Batch_backend.create r.compiled
                  ~width:(Array.length y0s)
              in
              Om_ode.Ensemble.create ~dim:(FM.dim f)
                ~f:(Om_codegen.Batch_backend.brhs bb)
                y0s
            in
            (* Each member's trajectory, accepted steps and rejections. *)
            let members (rep : Om_ode.Ensemble.report) =
              match rep.trajectories with
              | Some trs ->
                  Array.mapi
                    (fun m tr -> (tr, rep.steps.(m), rep.rejected.(m)))
                    trs
              | None -> failwith "ensemble recorded no trajectories"
            in
            let scalar_run solve y0 =
              let sys =
                Om_ode.Odesys.make ~names ~dim:(FM.dim f)
                  (Om_codegen.Pipeline.rhs_fn r)
              in
              let tr = solve sys y0 in
              (tr, sys.counters.steps, sys.counters.rejected)
            in
            let rk4_batch y0s =
              members
                (Om_ode.Ensemble.rk4 ~record:true (batch y0s) ~t0 ~tend ~h)
            in
            let rk4_scalar =
              scalar_run (fun sys y0 ->
                  Om_ode.Rk.integrate_fixed Om_ode.Rk.rk4 sys ~t0 ~y0 ~tend ~h)
            in
            (* The adaptive arm's attempt budget: a member whose scalar
               run needs more has nothing to be compared against. *)
            let rkf45_max_steps = 20_000 in
            let rkf45_batch y0s =
              members
                (Om_ode.Ensemble.rkf45 ~record:true ~max_steps:rkf45_max_steps
                   (batch y0s) ~t0 ~tend)
            in
            let rkf45_scalar =
              scalar_run (fun sys y0 ->
                  Om_ode.Rk.rkf45 ~max_steps:rkf45_max_steps sys ~t0 ~y0 ~tend)
            in
            let differs (tr, steps, rejected) (tr', steps', rejected') =
              match diverges names tr tr' with
              | Some d -> Some d
              | None when steps <> steps' ->
                  Some (Printf.sprintf "%d accepted steps vs %d" steps steps')
              | None when rejected <> rejected' ->
                  Some (Printf.sprintf "%d rejections vs %d" rejected rejected')
              | None -> None
            in
            (* Batch of one over the model's own initial state must be
               bitwise identical to the scalar reference trajectory. *)
            strategy "ensemble-batch-1" (fun () ->
                let tr, _, _ = (rk4_batch [| FM.initial_values f |]).(0) in
                tr);
            (* A batch of perturbed members, under RK4 and under RKF45:
               each member must reproduce a scalar run from its own
               initial state, trajectory, steps and rejections.  On
               divergence, shrink along the batch index — re-run the
               offending member alone to separate VM batching from
               interaction between members.  Relative offsets of up to
               1e-3, like the benchmark's ensemble starts, so members of
               branchy models split at conditionals and the
               diverged-lane driver is checked. *)
            let nbatch = 8 in
            let member_y0 m =
              Array.mapi
                (fun i v ->
                  let u = float_of_int ((((m * 31) + (i * 7)) mod 13) - 6) in
                  v *. (1. +. (1e-3 *. u /. 6.)))
                (FM.initial_values f)
            in
            let y0s = Array.init nbatch member_y0 in
            let check_members what run_batch refs =
              match run_batch y0s with
              | exception exn ->
                  fail "ensemble" "batch-%d %s raised %s" nbatch what
                    (Printexc.to_string exn)
              | got -> (
                  let rec first_bad m =
                    if m >= nbatch then None
                    else
                      match differs got.(m) refs.(m) with
                      | Some d -> Some (m, d)
                      | None -> first_bad (m + 1)
                  in
                  match first_bad 0 with
                  | None -> ()
                  | Some (m, d) -> (
                      fail "ensemble"
                        "batch-%d %s member %d diverges from its scalar run: %s"
                        nbatch what m d;
                      (* shrink to batch index [m] alone *)
                      match run_batch [| y0s.(m) |] with
                      | exception _ -> ()
                      | got1 -> (
                          match differs got1.(0) refs.(m) with
                          | Some d1 ->
                              fail "ensemble"
                                "shrunk: %s member %d alone (batch of 1) still \
                                 diverges: %s"
                                what m d1
                          | None ->
                              fail "ensemble"
                                "shrunk: %s member %d alone matches — \
                                 divergence needs batch width %d (interaction \
                                 between members)"
                                what m nbatch)))
            in
            check_members "rk4" rk4_batch (Array.map rk4_scalar y0s);
            (match Array.map rkf45_scalar y0s with
            | exception _ -> ()
            | refs -> check_members "rkf45" rkf45_batch refs);
            sweep_refused :=
              check_sweep
                ~violation:(fun invariant detail ->
                  vs := { invariant; detail } :: !vs)
                m src;
            (* ---- chaos: one seeded fault, recovery must be bitwise --- *)
            (match chaos with
            | None -> ()
            | Some cseed when !n_tasks > 0 ->
                let plan =
                  Om_guard.Fault_plan.seeded ~seed:cseed ~ntasks:!n_tasks
                    ~nworkers:2 ~max_round:40
                in
                let has_delay =
                  List.exists
                    (function
                      | Om_guard.Fault_plan.Delay_worker _ -> true
                      | _ -> false)
                    (Om_guard.Fault_plan.faults plan)
                in
                let config =
                  {
                    R.default_config with
                    execution = R.Real_domains 2;
                    faults = Some plan;
                    barrier_deadline = (if has_delay then 1e-4 else 0.);
                  }
                in
                (match R.execute ~config ~solver:(R.Rk4 h) ~t0 ~tend r with
                | rep ->
                    compare_traj "chaos-real-domains-2" rep.R.trajectory;
                    if rep.R.faults_injected < 1 then
                      fail "chaos"
                        "seeded plan (%s) injected nothing over the run"
                        (Fmt.str "%a" Om_guard.Fault_plan.pp plan)
                | exception exn ->
                    fail "chaos" "recovery from %s raised %s"
                      (Fmt.str "%a" Om_guard.Fault_plan.pp plan)
                      (Printexc.to_string exn))
            | Some _ -> ())
          end);
      {
        dim = !dim;
        n_tasks = !n_tasks;
        split = !split;
        lsoda_sequential_only = !lsoda_sequential_only;
        sweep_refused = !sweep_refused;
        discarded = !discarded;
        violations = List.rev !vs;
      }
