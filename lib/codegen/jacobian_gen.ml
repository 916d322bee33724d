module E = Om_expr.Expr

type t = {
  dim : int;
  entries : (int * int * E.t) list;
  block : Cse.block;
}

let target row col = Printf.sprintf "j$%d$%d" row col

let target_coords s =
  match String.split_on_char '$' s with
  | [ "j"; r; c ] -> (int_of_string r, int_of_string c)
  | _ -> invalid_arg "Jacobian_gen: bad target"

let generate (m : Om_lang.Flat_model.t) =
  let states = Array.of_list (List.map fst m.states) in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i s -> Hashtbl.replace index s i) states;
  let grads =
    Om_expr.Deriv.jacobian states
      (Array.of_list (List.map snd m.equations))
  in
  let entries =
    List.concat
      (List.mapi
         (fun row (_, rhs) ->
           (* Only states that actually occur, in [E.vars] order; the
              rest are structural zeros. *)
           List.filter_map
             (fun v ->
               match Hashtbl.find_opt index v with
               | None -> None
               | Some col -> (
                   let entry = Array.find_opt (fun (c, _) -> c = col) in
                   match entry grads.(row) with
                   | Some (_, d) when not (E.equal d E.zero) ->
                       Some (row, col, d)
                   | _ -> None))
             (E.vars rhs))
         m.equations)
  in
  let targets =
    List.map (fun (r, c, e) -> (target r c, e)) entries
  in
  let block = Cse.eliminate ~prefix:"jcse$" targets in
  { dim = Array.length states; entries; block }

let nonzero_count t = List.length t.entries

let density t =
  if t.dim = 0 then 0.
  else float_of_int (nonzero_count t) /. float_of_int (t.dim * t.dim)

let flops t = Cse.block_cost t.block

let fortran t ~state_names ~model_name =
  let buf = Buffer.create 4096 in
  let n_lines = ref 0 in
  let n_decls = ref 0 in
  let n_stmts = ref 0 in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n';
    incr n_lines
  in
  let mangle = Fortran.mangle in
  line ("! Generated Jacobian for model " ^ model_name);
  line "subroutine JAC(t, yin, pd)";
  line "  integer, parameter :: dp = kind(1.0d0)";
  line "  real(dp), intent(in) :: t";
  line (Printf.sprintf "  real(dp), intent(in) :: yin(%d)" t.dim);
  line (Printf.sprintf "  real(dp), intent(out) :: pd(%d,%d)" t.dim t.dim);
  Array.iter
    (fun s ->
      line (Printf.sprintf "  real(dp) :: %s" (mangle s));
      incr n_decls)
    state_names;
  List.iter
    (fun (b : Cse.binding) ->
      line (Printf.sprintf "  real(dp) :: %s" (mangle b.name));
      incr n_decls)
    t.block.temps;
  line "  pd = 0.0d0";
  incr n_stmts;
  Array.iteri
    (fun i s ->
      line (Printf.sprintf "  %s = yin(%d)" (mangle s) (i + 1));
      incr n_stmts)
    state_names;
  List.iter
    (fun (b : Cse.binding) ->
      line
        (Printf.sprintf "  %s = %s" (mangle b.name)
           (Fortran.expr_to_fortran mangle b.expr));
      incr n_stmts)
    t.block.temps;
  List.iter
    (fun (tgt, e) ->
      let r, c = target_coords tgt in
      line
        (Printf.sprintf "  pd(%d,%d) = %s" (r + 1) (c + 1)
           (Fortran.expr_to_fortran mangle e));
      incr n_stmts)
    t.block.roots;
  line "end subroutine JAC";
  {
    Fortran.code = Buffer.contents buf;
    total_lines = !n_lines;
    declaration_lines = !n_decls;
    statement_lines = !n_stmts;
    cse_count = Cse.temp_count t.block;
  }
