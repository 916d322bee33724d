(* Property and regression tests for the sparse Newton path: CSR
   patterns, distance-2 column coloring, colored finite differences,
   the dense-replaying sparse LU, Newton-matrix assembly, and the
   parallel colored-group evaluator.

   The load-bearing claims are all *bitwise*: the sparse path must be a
   drop-in replacement for the dense one, producing Int64-identical
   numbers, so every comparison below goes through
   [Int64.bits_of_float] rather than a tolerance. *)

module S = Om_ode.Sparse
module L = Om_ode.Linalg
module Odesys = Om_ode.Odesys
module Jacobian = Om_ode.Jacobian

let bits = Int64.bits_of_float

(* ---------- generators ---------- *)

(* A random rectangular-free sparse pattern: [n] columns/rows plus a
   per-cell inclusion mask drawn from a density knob. *)
let pattern_gen =
  QCheck.Gen.(
    let* n = int_range 2 20 in
    let* keep = int_range 1 6 in
    let* mask = array_size (return (n * n)) (int_range 0 9) in
    let entries = ref [] in
    for i = n - 1 downto 0 do
      for j = n - 1 downto 0 do
        if mask.((i * n) + j) < keep then entries := (i, j) :: !entries
      done
    done;
    return (n, !entries))

let arbitrary_pattern =
  QCheck.make
    ~print:(fun (n, es) -> Printf.sprintf "n=%d nnz<=%d" n (List.length es))
    pattern_gen

(* A random sparse matrix: pattern with a full diagonal (so random
   values are usually nonsingular, and the Newton merge is the
   identity) plus values in [-5, 5]. *)
let matrix_gen =
  QCheck.Gen.(
    let* n, entries = pattern_gen in
    let pat =
      S.pattern_of_entries ~rows:n ~cols:n
        (List.init n (fun i -> (i, i)) @ entries)
    in
    let* v = array_size (return (S.nnz pat)) (float_range (-5.) 5.) in
    let* b = array_size (return n) (float_range (-5.) 5.) in
    return (pat, v, b))

let arbitrary_matrix =
  QCheck.make
    ~print:(fun (p, _, _) ->
      Printf.sprintf "n=%d nnz=%d" p.S.rows (S.nnz p))
    matrix_gen

let sparse_of (pat, v) =
  let sm = S.create pat in
  Array.blit v 0 sm.S.v 0 (S.nnz pat);
  sm

(* ---------- coloring ---------- *)

(* Validity: the partition into groups is consistent with the color
   array, and no two columns sharing a row share a color (the distance-2
   property that makes one RHS evaluation per group decompressible). *)
let prop_coloring_valid =
  QCheck.Test.make ~name:"coloring is a valid distance-2 partition"
    ~count:300 arbitrary_pattern (fun (n, entries) ->
      let pat = S.pattern_of_entries ~rows:n ~cols:n entries in
      let c = S.color_columns pat in
      let ok_range =
        Array.for_all (fun col -> col >= 0 && col < c.S.ncolors) c.S.color
      in
      let ok_groups =
        c.S.ncolors = Array.length c.S.groups
        && Array.for_all (fun g -> Array.length g > 0) c.S.groups
        && Array.to_list c.S.groups
           |> List.concat_map Array.to_list
           |> List.sort compare
           = List.init n Fun.id
        && Array.for_all2
             (fun g color -> Array.for_all (fun j -> c.S.color.(j) = color) g)
             c.S.groups
             (Array.init c.S.ncolors Fun.id)
      in
      let ok_distance2 =
        (* walk each row; its columns must have pairwise distinct colors *)
        let ok = ref true in
        for i = 0 to pat.S.rows - 1 do
          let seen = Hashtbl.create 8 in
          for k = pat.S.row_ptr.(i) to pat.S.row_ptr.(i + 1) - 1 do
            let col = c.S.color.(pat.S.col_ind.(k)) in
            if Hashtbl.mem seen col then ok := false;
            Hashtbl.replace seen col ()
          done
        done;
        !ok
      in
      ok_range && ok_groups && ok_distance2)

(* On a banded pattern the greedy ordering achieves the analytic bound:
   at most ml + mu + 1 colors (CPR on band matrices). *)
let prop_banded_color_bound =
  QCheck.Test.make ~name:"banded pattern colors <= ml + mu + 1" ~count:200
    (QCheck.make
       ~print:(fun (n, ml, mu) -> Printf.sprintf "n=%d ml=%d mu=%d" n ml mu)
       QCheck.Gen.(
         let* n = int_range 2 40 in
         let* ml = int_range 0 3 in
         let* mu = int_range 0 3 in
         return (n, ml, mu)))
    (fun (n, ml, mu) ->
      let entries = ref [] in
      for i = 0 to n - 1 do
        for j = max 0 (i - ml) to min (n - 1) (i + mu) do
          entries := (i, j) :: !entries
        done
      done;
      let pat = S.pattern_of_entries ~rows:n ~cols:n !entries in
      (S.color_columns pat).S.ncolors <= ml + mu + 1)

(* ---------- colored finite differences ---------- *)

(* A synthetic RHS that reads exactly the structural entries of its
   pattern (deterministic nonlinear coefficients), so forward
   differences outside the pattern are exactly +0 and the colored
   compression is loss-free. *)
let structural_rhs (pat : S.pattern) t y ydot =
  for i = 0 to pat.rows - 1 do
    let acc = ref (Float.sin t) in
    for k = pat.row_ptr.(i) to pat.row_ptr.(i + 1) - 1 do
      let j = pat.col_ind.(k) in
      let c = float_of_int ((((i * 7) + (j * 13)) mod 11) - 5) /. 7. in
      acc := !acc +. (c *. Float.sin y.(j)) +. (0.1 *. y.(j) *. y.(j))
    done;
    ydot.(i) <- !acc
  done

let prop_colored_fd_bitwise =
  QCheck.Test.make
    ~name:"colored fd decompresses to dense forward differences bitwise"
    ~count:200 arbitrary_pattern (fun (n, entries) ->
      let pat = S.pattern_of_entries ~rows:n ~cols:n entries in
      let sys = Odesys.make ~sparsity:pat ~dim:n (structural_rhs pat) in
      let ctx =
        match Jacobian.plan ~jac_mode:Odesys.Sparse sys with
        | Jacobian.Sparse_plan c -> c
        | _ -> QCheck.Test.fail_report "no sparse plan"
      in
      let y = Array.init n (fun i -> Float.cos (float_of_int i)) in
      Jacobian.sparse_eval_into sys ctx 0.3 y;
      let num = Jacobian.numeric sys 0.3 y in
      let ok_structural = ref true and ok_zero = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if S.mem pat i j then (
            let k = S.index pat i j in
            if bits ctx.Jacobian.sj.S.v.(k) <> bits num.(i).(j) then
              ok_structural := false)
          else if bits num.(i).(j) <> bits 0. then ok_zero := false
        done
      done;
      !ok_structural && !ok_zero)

(* The fd cost model the report advertises: one Jacobian evaluation
   costs exactly [colors + 1] RHS calls. *)
let check_fd_cost name sys y ~colors =
  let ctx =
    match Jacobian.plan ~jac_mode:Odesys.Sparse sys with
    | Jacobian.Sparse_plan c -> c
    | _ -> Alcotest.fail (name ^ ": no sparse plan")
  in
  Alcotest.(check int) (name ^ " colors") colors
    (S.color_columns ctx.Jacobian.spat).S.ncolors;
  Odesys.reset_counters sys;
  Jacobian.sparse_eval_into sys ctx 0. y;
  Alcotest.(check int) (name ^ " jac_calls") 1
    sys.Odesys.counters.Odesys.jac_calls;
  Alcotest.(check int) (name ^ " rhs calls = colors + 1") (colors + 1)
    sys.Odesys.counters.Odesys.rhs_calls

let test_fd_evals_equals_colors_plus_one () =
  let n = 20 in
  let entries = ref [] in
  for i = 0 to n - 1 do
    for j = max 0 (i - 1) to min (n - 1) (i + 1) do
      entries := (i, j) :: !entries
    done
  done;
  let pat = S.pattern_of_entries ~rows:n ~cols:n !entries in
  let sys = Odesys.make ~sparsity:pat ~dim:n (structural_rhs pat) in
  check_fd_cost "tridiagonal" sys (Array.make n 1.) ~colors:3;
  (* A compiled model: method-of-lines heat at 401 states, whose
     pattern is derived from its equations, colors with 3. *)
  let heat = Om_pde.Discretize.heat_1d ~n:403 () in
  let sys =
    Odesys.of_equations ~with_symbolic_jacobian:false heat.equations
  in
  Alcotest.(check int) "heat states" 401 sys.Odesys.dim;
  check_fd_cost "heat-401" sys
    (Om_lang.Flat_model.initial_values heat)
    ~colors:3

(* ---------- sparse LU vs dense LU ---------- *)

let prop_sparse_lu_bitwise =
  QCheck.Test.make
    ~name:"sparse LU solve bitwise equals dense (incl. Singular parity)"
    ~count:300 arbitrary_matrix (fun (pat, v, b) ->
      let sm = sparse_of (pat, v) in
      let dense = S.to_dense sm in
      let s_res =
        try Ok (S.lu_solve (S.lu_factor sm) b) with L.Singular k -> Error k
      in
      let d_res =
        try Ok (L.lu_solve (L.lu_factor dense) b)
        with L.Singular k -> Error k
      in
      match (s_res, d_res) with
      | Ok xs, Ok xd -> Array.for_all2 (fun a c -> bits a = bits c) xs xd
      | Error a, Error c -> a = c
      | _ -> false)

let test_singular_index_parity () =
  (* An exactly zero pivot column: both factorisations must name the
     same pivot step. *)
  let dense = [| [| 1.; 0.; 2. |]; [| 3.; 0.; 4. |]; [| 5.; 0.; 6. |] |] in
  let sm = S.of_dense ~tol:(-1.) dense in
  let d_idx =
    try
      ignore (L.lu_factor (Array.map Array.copy dense));
      -1
    with L.Singular k -> k
  in
  let s_idx = try ignore (S.lu_factor sm); -1 with L.Singular k -> k in
  Alcotest.(check bool) "dense is singular" true (d_idx >= 0);
  Alcotest.(check int) "same pivot step" d_idx s_idx

(* ---------- Newton assembly ---------- *)

let prop_newton_assemble_bitwise =
  QCheck.Test.make
    ~name:"newton_assemble bitwise equals dense alpha*I - beta*J"
    ~count:300
    (QCheck.make
       ~print:(fun ((p, _, _), _, _) ->
         Printf.sprintf "n=%d nnz=%d" p.S.rows (S.nnz p))
       QCheck.Gen.(
         let* m = matrix_gen in
         let* alpha = float_range (-3.) 3. in
         let* beta = float_range (-3.) 3. in
         return (m, alpha, beta)))
    (fun ((pat, v, _), alpha, beta) ->
      let sm = sparse_of (pat, v) in
      let n = pat.S.rows in
      let nt = S.make_newton pat in
      S.newton_assemble nt ~jac:sm ~alpha ~beta;
      let got = S.to_dense (S.newton_matrix nt) in
      let j = S.to_dense sm in
      let ok = ref true in
      for i = 0 to n - 1 do
        for k = 0 to n - 1 do
          let want =
            (if i = k then alpha else 0.) -. (beta *. j.(i).(k))
          in
          (* Outside the merged pattern the dense formula can produce a
             signed zero the CSR storage has no slot for; those
             positions are structurally impossible to disagree on
             magnitude, so compare values there and bits inside. *)
          if S.mem (S.newton_matrix nt).S.pat i k then (
            if bits got.(i).(k) <> bits want then ok := false)
          else if got.(i).(k) <> want then ok := false
        done
      done;
      !ok)

(* ---------- pattern plumbing ---------- *)

let test_pattern_merge_and_index () =
  let pat =
    S.pattern_of_entries ~rows:3 ~cols:3
      [ (0, 2); (0, 0); (0, 2); (2, 1) ]
  in
  Alcotest.(check int) "duplicates merged" 3 (S.nnz pat);
  Alcotest.(check bool) "mem hit" true (S.mem pat 0 2);
  Alcotest.(check bool) "mem miss" false (S.mem pat 1 1);
  Alcotest.(check int) "index of miss" (-1) (S.index pat 1 1);
  Alcotest.(check bool) "ascending columns" true
    (pat.S.col_ind = [| 0; 2; 1 |])

let prop_dense_roundtrip =
  QCheck.Test.make ~name:"of_dense . to_dense is the identity" ~count:200
    arbitrary_matrix (fun (pat, v, _) ->
      let sm = sparse_of (pat, v) in
      let back = S.of_dense ~tol:(-1.) (S.to_dense sm) in
      (* [tol = -1] keeps explicit zeros, but of_dense cannot recover
         structural slots holding 0. exactly; compare as dense. *)
      S.to_dense back = S.to_dense sm)

let () =
  let q = Qcheck_seed.to_alcotest in
  Alcotest.run "om_sparse"
    [
      ( "coloring",
        [
          q prop_coloring_valid;
          q prop_banded_color_bound;
          Alcotest.test_case "fd evals = colors + 1" `Quick
            test_fd_evals_equals_colors_plus_one;
        ] );
      ("fd", [ q prop_colored_fd_bitwise ]);
      ( "lu",
        [
          q prop_sparse_lu_bitwise;
          Alcotest.test_case "singular index parity" `Quick
            test_singular_index_parity;
        ] );
      ("newton", [ q prop_newton_assemble_bitwise ]);
      ( "pattern",
        [
          Alcotest.test_case "merge and index" `Quick
            test_pattern_merge_and_index;
          q prop_dense_roundtrip;
        ] );
    ]
