let intermediate_form ?(width = 72) (m : Flat_model.t) =
  let header = [ "List["; "  List[" ] in
  let eq_lines =
    List.concat_map
      (fun (s, rhs) ->
        (* The derivative head on a line of its own, then the right-hand
           side wrapped at argument boundaries. *)
        Printf.sprintf
          "    Equal[Derivative[1][om$Type[%s, om$Real]][om$Type[t, \
           om$Real]],"
          s
        :: List.map
             (fun l -> "      " ^ l)
             (Om_expr.Prefix_form.to_lines ~annotate:true ~width rhs)
        @ [ "    ]," ])
      m.equations
  in
  let footer =
    [
      "  ],";
      "  List[om$Type[t, om$Real], om$Type[tstart, om$Real], om$Type[tend, \
       om$Real]]";
      "]";
    ]
  in
  header @ eq_lines @ footer

let intermediate_line_count m = List.length (intermediate_form m)

(* How many times each name occurs. *)
let multiset names =
  let h = Hashtbl.create (List.length names) in
  List.iter
    (fun n ->
      Hashtbl.replace h n (1 + Option.value ~default:0 (Hashtbl.find_opt h n)))
    names;
  h

let check_reads (m : Flat_model.t) =
  let states = List.map fst m.states in
  let eq_states = List.map fst m.equations in
  let state_count = multiset states in
  let eq_count = multiset eq_states in
  let same_multiset =
    Hashtbl.length state_count = Hashtbl.length eq_count
    && Hashtbl.fold
         (fun n k ok -> ok && Hashtbl.find_opt eq_count n = Some k)
         state_count true
  in
  (if not same_multiset then
     let missing =
       List.filter (fun s -> not (Hashtbl.mem eq_count s)) states
     in
     let extra = List.filter (fun s -> not (Hashtbl.mem state_count s)) eq_states in
     let part what = function
       | [] -> []
       | names -> [ Printf.sprintf "%s %s" what (String.concat ", " names) ]
     in
     let detail =
       part "states without an equation:" missing
       @ part "equations without a state:" extra
     in
     let detail =
       if detail = [] then "duplicate names" else String.concat "; " detail
     in
     invalid_arg
       (Printf.sprintf "Typecheck.check: states and equations do not match (%s)"
          detail));
  (* The equations name the same multiset of states, so a repeated state
     passes the test above.  Code generation maps a name to one slot, so
     the second state's equation would read the first state's value. *)
  (match List.find_opt (fun s -> Hashtbl.find state_count s > 1) states with
  | Some s -> invalid_arg (Printf.sprintf "Typecheck.check: duplicate state %s" s)
  | None -> ());
  List.map
    (fun (s, rhs) ->
      let reads = Om_expr.Expr.vars rhs in
      List.iter
        (fun v ->
          if (not (Hashtbl.mem state_count v)) && v <> "t" then
            invalid_arg
              (Printf.sprintf "Typecheck.check: %s is free in equation for %s"
                 v s))
        reads;
      reads)
    m.equations

let check m = ignore (check_reads m)
