module A = Om_lang.Ast

type failure = {
  index : int;
  violations : Oracle.violation list;
  original : A.model;
  shrunk : A.model;
  shrunk_violations : Oracle.violation list;
}

type summary = {
  cases : int;
  discarded : int;
  split : int;
  lsoda_sequential_only : int;
  sweep_refused : int;
  dim_total : int;
  task_total : int;
  failures : failure list;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let dump_failure dir ~seed (fl : failure) =
  mkdir_p dir;
  let base i suffix = Filename.concat dir (Printf.sprintf "case%04d-%s" i suffix) in
  write_file (base fl.index "original.om") (Om_lang.Unparse.model fl.original);
  write_file (base fl.index "shrunk.om") (Om_lang.Unparse.model fl.shrunk);
  let report =
    Fmt.str "case %d (seed %d)@.@.original violations:@.%a@.@.shrunk violations:@.%a@."
      fl.index seed
      (Fmt.list ~sep:Fmt.cut Oracle.pp_violation)
      fl.violations
      (Fmt.list ~sep:Fmt.cut Oracle.pp_violation)
      fl.shrunk_violations
  in
  write_file (base fl.index "report.txt") report

let run ?out_dir ?check ?(chaos = false) ?(log = ignore)
    ~cases ~seed () =
  let check_for i =
    match check with
    | Some c -> c
    | None ->
        if chaos then Oracle.check ~chaos:(seed lxor (i * 0x9e3779b1))
        else Oracle.check ?chaos:None
  in
  let failures = ref [] in
  let discarded = ref 0 in
  let split = ref 0 in
  let lsoda_sequential_only = ref 0 in
  let sweep_refused = ref 0 in
  let dim_total = ref 0 in
  let task_total = ref 0 in
  for i = 0 to cases - 1 do
    let rng = Random.State.make [| seed; i |] in
    let m = Gen.model rng in
    let check = check_for i in
    let res = check m in
    dim_total := !dim_total + res.Oracle.dim;
    task_total := !task_total + res.Oracle.n_tasks;
    if res.Oracle.split then incr split;
    if res.Oracle.sweep_refused then incr sweep_refused;
    if res.Oracle.lsoda_sequential_only then begin
      incr lsoda_sequential_only;
      log (Printf.sprintf "case %d: LSODA checked sequentially only" i)
    end;
    (match res.Oracle.discarded with
    | Some why ->
        incr discarded;
        log (Printf.sprintf "case %d: discarded (%s)" i why)
    | None -> ());
    if res.Oracle.violations <> [] then begin
      let first = List.hd res.Oracle.violations in
      let shrunk, shrunk_violations =
        if chaos then begin
          (* A fault plan's (round, task) coordinates are meaningless on
             a shrunk model, so chaos failures are reported as-is. *)
          log
            (Printf.sprintf "case %d: VIOLATION %s (chaos: not shrinking)" i
               (Fmt.str "%a" Oracle.pp_violation first));
          (m, res.Oracle.violations)
        end
        else begin
          log
            (Printf.sprintf "case %d: VIOLATION %s — shrinking..." i
               (Fmt.str "%a" Oracle.pp_violation first));
          (* Shrink while the same invariant keeps failing. *)
          let predicate m' =
            List.exists
              (fun v -> v.Oracle.invariant = first.Oracle.invariant)
              (check m').Oracle.violations
          in
          let shrunk = Shrink.shrink m ~predicate in
          (shrunk, (check shrunk).Oracle.violations)
        end
      in
      let fl =
        { index = i; violations = res.Oracle.violations; original = m; shrunk;
          shrunk_violations }
      in
      failures := fl :: !failures;
      match out_dir with
      | Some dir -> dump_failure dir ~seed fl
      | None -> ()
    end
  done;
  {
    cases;
    discarded = !discarded;
    split = !split;
    lsoda_sequential_only = !lsoda_sequential_only;
    sweep_refused = !sweep_refused;
    dim_total = !dim_total;
    task_total = !task_total;
    failures = List.rev !failures;
  }

let pp_summary ppf s =
  Fmt.pf ppf
    "%d cases: %d failed, %d discarded, %d lsoda sequential-only, %d split, \
     %d sweeps refused (mean dim %.1f, mean tasks %.1f)"
    s.cases (List.length s.failures) s.discarded s.lsoda_sequential_only
    s.split s.sweep_refused
    (if s.cases = 0 then 0. else float_of_int s.dim_total /. float_of_int s.cases)
    (if s.cases = 0 then 0. else float_of_int s.task_total /. float_of_int s.cases)
