(* The six workloads, in the order every report lists them. *)

let all =
  [
    ("simulate-bearing", W_simulate.run);
    ("serve-stiff", W_serve.run W_serve.Stiff);
    ("serve-churn", W_serve.run W_serve.Churn);
    ("rhs-par2", W_par2.run);
    ("ensemble-512", W_ensemble.run);
    ("compile-scaling", W_compile.run);
  ]

let names = List.map fst all

(* Run one workload and return its result record — the JSON object the
   benchmark prints as its last line.  A metric set twice takes its later
   value; non-finite values count as failed checks and print as 0. *)
let run ctx name =
  let f = List.assoc name all in
  Span.reset ();
  Span.enabled := false;
  let o : Harness.outcome = f ctx in
  let t = o.tally in
  let vocab = if ctx.Harness.trace then Vocab.per_layer else Vocab.end_to_end in
  let metrics =
    List.map
      (fun (m : Vocab.metric) ->
        let v =
          match List.assoc_opt m.name (List.rev o.metrics) with
          | Some v -> v
          | None when ctx.trace -> 0.
          | None -> nan
        in
        let v =
          if Float.is_finite v then v
          else begin
            Harness.check t false "%s is not a finite number" m.name;
            0.
          end
        in
        ( m.name,
          Om_serve.Json.Obj
            [ ("value", Om_serve.Json.Num v); ("unit", Om_serve.Json.Str m.unit_) ] ))
      vocab
  in
  Om_serve.Json.Obj
    [
      ("correct", Om_serve.Json.Bool (t.failed = 0));
      ("attempted", Om_serve.Json.Int (max 1 t.attempted));
      ("failed", Om_serve.Json.Int t.failed);
      ("metrics", Om_serve.Json.Obj metrics);
    ]
