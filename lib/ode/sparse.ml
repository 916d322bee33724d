(* Sparse Jacobian support for the stiff Newton path.

   Three pieces, all built around one CSR pattern:

   - a greedy distance-2 column coloring, so a finite-difference Jacobian
     needs one RHS evaluation per *color* instead of per column
     (Curtis–Powell–Reid compression; the abstract-elementary-algebra
     sparse-AD route of Peleš & Klus, arXiv 1505.00838);
   - a compressed-column assembly that scatters either symbolic entries
     or colored differences into the CSR value array;
   - a left-looking (Gilbert–Peierls) sparse LU with partial pivoting
     engineered to reproduce the dense {!Linalg.lu_factor} arithmetic
     operation-for-operation, so switching a solver between the dense
     and sparse paths leaves trajectories bitwise identical.

   The bitwise claim rests on three facts.  (1) Entries outside the
   pattern are exactly [+0.] in the dense path (structural zeros of the
   RHS reads), so every dense operation the sparse code skips is a
   bitwise no-op.  (2) Updates inside one elimination column are applied
   in ascending pivot order — the same order the dense right-looking
   loop uses — and the triangular solves walk rows in the dense loop
   order.  (3) Pivoting tracks the dense row-swap history through a
   position permutation, so the pivot search sees candidates with the
   dense tie-breaking rule (strictly-greater magnitude wins, first
   position keeps ties). *)

type pattern = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_ind : int array;
}

let nnz p = p.row_ptr.(p.rows)

let density p =
  if p.rows = 0 || p.cols = 0 then 0.
  else float_of_int (nnz p) /. (float_of_int p.rows *. float_of_int p.cols)

(* Sort [a.(lo) .. a.(hi - 1)] in place: an insertion sort for the
   short runs of a sparse row or column, which needs no copy, and a
   heap sort beyond. *)
let sort_ints a lo hi =
  if hi - lo > 32 then begin
    let seg = Array.sub a lo (hi - lo) in
    Array.sort Int.compare seg;
    Array.blit seg 0 a lo (hi - lo)
  end
  else
    for i = lo + 1 to hi - 1 do
      let v = a.(i) in
      let j = ref i in
      while !j > lo && a.(!j - 1) > v do
        a.(!j) <- a.(!j - 1);
        decr j
      done;
      a.(!j) <- v
    done

let pattern_of_entries ~rows ~cols entries =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.pattern_of_entries";
  List.iter
    (fun (r, c) ->
      if r < 0 || r >= rows || c < 0 || c >= cols then
        invalid_arg
          (Printf.sprintf "Sparse.pattern_of_entries: (%d,%d) out of %dx%d" r c
             rows cols))
    entries;
  let count = Array.make rows 0 in
  List.iter (fun (r, _) -> count.(r) <- count.(r) + 1) entries;
  let row_ptr = Array.make (rows + 1) 0 in
  for i = 0 to rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + count.(i)
  done;
  let fill = Array.copy row_ptr in
  let raw = Array.make (List.length entries) 0 in
  List.iter
    (fun (r, c) ->
      raw.(fill.(r)) <- c;
      fill.(r) <- fill.(r) + 1)
    entries;
  (* Sort and deduplicate each row. *)
  let dedup_ci = Array.make (Array.length raw) 0 in
  let dedup_ptr = Array.make (rows + 1) 0 in
  let k = ref 0 in
  for i = 0 to rows - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    sort_ints raw lo hi;
    for s = lo to hi - 1 do
      if s = lo || raw.(s) <> raw.(s - 1) then begin
        dedup_ci.(!k) <- raw.(s);
        incr k
      end
    done;
    dedup_ptr.(i + 1) <- !k
  done;
  { rows; cols; row_ptr = dedup_ptr; col_ind = Array.sub dedup_ci 0 !k }

let pattern_of_dense ?(tol = 0.) (m : Linalg.mat) =
  let rows = Array.length m in
  let cols = if rows = 0 then 0 else Array.length m.(0) in
  let entries = ref [] in
  for i = rows - 1 downto 0 do
    for j = cols - 1 downto 0 do
      if Float.abs m.(i).(j) > tol then entries := (i, j) :: !entries
    done
  done;
  pattern_of_entries ~rows ~cols !entries

(* CSR slot of (i, j), or -1: binary search inside row i. *)
let index p i j =
  let lo = ref p.row_ptr.(i) and hi = ref (p.row_ptr.(i + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = p.col_ind.(mid) in
    if c = j then found := mid else if c < j then lo := mid + 1 else hi := mid - 1
  done;
  !found

let mem p i j = index p i j >= 0

type t = { pat : pattern; v : float array }

let create pat = { pat; v = Array.make (nnz pat) 0. }

let of_dense ?tol (m : Linalg.mat) =
  let pat = pattern_of_dense ?tol m in
  let a = create pat in
  for i = 0 to pat.rows - 1 do
    for k = pat.row_ptr.(i) to pat.row_ptr.(i + 1) - 1 do
      a.v.(k) <- m.(i).(pat.col_ind.(k))
    done
  done;
  a

let to_dense a =
  let m = Linalg.make a.pat.rows a.pat.cols 0. in
  for i = 0 to a.pat.rows - 1 do
    for k = a.pat.row_ptr.(i) to a.pat.row_ptr.(i + 1) - 1 do
      m.(i).(a.pat.col_ind.(k)) <- a.v.(k)
    done
  done;
  m

(* Transpose structure only: for each column, the rows containing it. *)
let transpose_pattern p =
  let count = Array.make p.cols 0 in
  Array.iter (fun c -> count.(c) <- count.(c) + 1) p.col_ind;
  let col_ptr = Array.make (p.cols + 1) 0 in
  for j = 0 to p.cols - 1 do
    col_ptr.(j + 1) <- col_ptr.(j) + count.(j)
  done;
  let fill = Array.copy col_ptr in
  let row_ind = Array.make (nnz p) 0 in
  for i = 0 to p.rows - 1 do
    for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
      let j = p.col_ind.(k) in
      row_ind.(fill.(j)) <- i;
      fill.(j) <- fill.(j) + 1
    done
  done;
  (col_ptr, row_ind)

(* ------------------------------------------------------------------ *)
(* Distance-2 column coloring                                          *)
(* ------------------------------------------------------------------ *)

type coloring = { ncolors : int; color : int array; groups : int array array }

let color_columns p =
  let nc = p.cols in
  let col_ptr, row_ind = transpose_pattern p in
  let color = Array.make nc (-1) in
  (* forbid.(c) = j marks color c as used by an earlier column sharing a
     row with column j. *)
  let forbid = Array.make (nc + 1) (-1) in
  let ncolors = ref 0 in
  for j = 0 to nc - 1 do
    for t = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      let i = row_ind.(t) in
      for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
        let j' = p.col_ind.(k) in
        if color.(j') >= 0 then forbid.(color.(j')) <- j
      done
    done;
    let c = ref 0 in
    while forbid.(!c) = j do
      incr c
    done;
    color.(j) <- !c;
    if !c + 1 > !ncolors then ncolors := !c + 1
  done;
  (* Empty patterns still need one group so fd has a well-defined shape. *)
  let ng = max 1 !ncolors in
  let sizes = Array.make ng 0 in
  Array.iter (fun c -> if c >= 0 then sizes.(c) <- sizes.(c) + 1) color;
  let groups = Array.map (fun s -> Array.make s 0) sizes in
  let fill = Array.make ng 0 in
  Array.iteri
    (fun j c ->
      if c >= 0 then begin
        groups.(c).(fill.(c)) <- j;
        fill.(c) <- fill.(c) + 1
      end)
    color;
  { ncolors = ng; color; groups }

(* ------------------------------------------------------------------ *)
(* Colored finite differences                                          *)
(* ------------------------------------------------------------------ *)

type fd_ws = {
  fpat : pattern;
  coloring : coloring;
  ypert : float array array; (* per group: y with that group's columns bumped *)
  fpert : float array array; (* per group: f(t, ypert) *)
  hstep : float array; (* per column: the step actually taken *)
}

let make_fd_ws p coloring =
  if p.rows <> p.cols then invalid_arg "Sparse.make_fd_ws: square patterns only";
  let ng = coloring.ncolors in
  {
    fpat = p;
    coloring;
    ypert = Array.init ng (fun _ -> Array.make p.cols 0.);
    fpert = Array.init ng (fun _ -> Array.make p.rows 0.);
    hstep = Array.make p.cols 0.;
  }

let fd_groups ws = ws.coloring.ncolors
let fd_points ws = ws.ypert
let fd_values ws = ws.fpert

let fd_prepare ?(eps = 1e-8) ws ~y =
  let ng = ws.coloring.ncolors in
  for g = 0 to ng - 1 do
    let yp = ws.ypert.(g) in
    Array.blit y 0 yp 0 (Array.length y);
    Array.iter
      (fun j ->
        (* Same step rule as Jacobian.numeric, column by column, so the
           perturbed points are bitwise the ones the dense path uses. *)
        let h = eps *. Float.max 1. (Float.abs y.(j)) in
        ws.hstep.(j) <- h;
        yp.(j) <- y.(j) +. h)
      ws.coloring.groups.(g)
  done

let fd_scatter ws ~f0 ~jac =
  if jac.pat != ws.fpat && jac.pat <> ws.fpat then
    invalid_arg "Sparse.fd_scatter: jacobian pattern mismatch";
  let p = ws.fpat in
  for i = 0 to p.rows - 1 do
    for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
      let j = p.col_ind.(k) in
      let g = ws.coloring.color.(j) in
      (* Row i reads at most one perturbed column in group g (distance-2
         property), so fpert.(g).(i) equals the single-column perturbed
         value bitwise. *)
      jac.v.(k) <- (ws.fpert.(g).(i) -. f0.(i)) /. ws.hstep.(j)
    done
  done

(* ------------------------------------------------------------------ *)
(* Left-looking sparse LU, bitwise-compatible with Linalg.lu_factor    *)
(* ------------------------------------------------------------------ *)

type lu = {
  n : int;
  (* Strictly lower triangle, CSR over *pivot positions*, columns
     ascending within each row; unit diagonal implied. *)
  l_rp : int array;
  l_ci : int array;
  l_v : float array;
  (* Strict upper triangle, CSR over pivot positions, columns ascending. *)
  u_rp : int array;
  u_ci : int array;
  u_v : float array;
  u_diag : float array;
  piv : int array; (* original row index at each pivot position *)
}

(* Growable scratch arrays for the factor's L/U columns. *)
type buf = { mutable data : float array; mutable idx : int array; mutable len : int }

let buf_make n = { data = Array.make (max 16 n) 0.; idx = Array.make (max 16 n) 0; len = 0 }

let buf_push b i x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d;
    let ix = Array.make (2 * b.len) 0 in
    Array.blit b.idx 0 ix 0 b.len;
    b.idx <- ix
  end;
  b.data.(b.len) <- x;
  b.idx.(b.len) <- i;
  b.len <- b.len + 1

let lu_factor (a : t) =
  let p = a.pat in
  if p.rows <> p.cols then invalid_arg "Sparse.lu_factor: not square";
  let n = p.rows in
  let col_ptr, row_ind = transpose_pattern p in
  (* Values in CSC order, parallel to row_ind. *)
  let cvals = Array.make (nnz p) 0. in
  (let fill = Array.copy col_ptr in
   for i = 0 to n - 1 do
     for k = p.row_ptr.(i) to p.row_ptr.(i + 1) - 1 do
       let j = p.col_ind.(k) in
       cvals.(fill.(j)) <- a.v.(k);
       fill.(j) <- fill.(j) + 1
     done
   done);
  (* pos.(r): current dense position of original row r; rowat is its
     inverse.  Dense partial pivoting never moves a row once it holds a
     pivot position < j, so "r is pivotal" iff pos.(r) < j. *)
  let pos = Array.init n Fun.id in
  let rowat = Array.init n Fun.id in
  let x = Array.make n 0. in
  let mark = Array.make n (-1) in
  let reach = Array.make n 0 in
  let stack = Array.make n 0 in
  let child = Array.make n 0 in
  (* L and U columns as they are produced, one span per pivot step.
     L rows are recorded as *original* indices (their final position is
     unknown until the factorisation ends); U rows are pivot positions. *)
  let lbuf = buf_make (4 * n) and ubuf = buf_make (4 * n) in
  let l_cp = Array.make (n + 1) 0 and u_cp = Array.make (n + 1) 0 in
  let u_diag = Array.make n 0. in
  let piv_ord = Array.make n 0 in
  (* Scratch for sorting the pivotal part of the reach set. *)
  let pivotal = Array.make n 0 in
  for j = 0 to n - 1 do
    (* Reach of the column pattern through the L graph. *)
    let nreach = ref 0 in
    for t = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      let r0 = row_ind.(t) in
      if mark.(r0) <> j then begin
        (* Iterative DFS; children of a pivotal node p are the original
           rows of L column pos.(p). *)
        let sp = ref 0 in
        stack.(0) <- r0;
        child.(0) <- 0;
        mark.(r0) <- j;
        x.(r0) <- 0.;
        reach.(!nreach) <- r0;
        incr nreach;
        while !sp >= 0 do
          let r = stack.(!sp) in
          if pos.(r) < j then begin
            let cstart = l_cp.(pos.(r)) and cstop = l_cp.(pos.(r) + 1) in
            let k = ref (cstart + child.(!sp)) in
            while !k < cstop && mark.(lbuf.idx.(!k)) = j do
              incr k
            done;
            if !k < cstop then begin
              child.(!sp) <- !k - cstart + 1;
              let r' = lbuf.idx.(!k) in
              mark.(r') <- j;
              x.(r') <- 0.;
              reach.(!nreach) <- r';
              incr nreach;
              incr sp;
              stack.(!sp) <- r';
              child.(!sp) <- 0
            end
            else decr sp
          end
          else decr sp
        done
      end
    done;
    (* Scatter A(:, j). *)
    for t = col_ptr.(j) to col_ptr.(j + 1) - 1 do
      x.(row_ind.(t)) <- cvals.(t)
    done;
    (* Apply updates from pivotal reach nodes in ascending pivot order —
       the order the dense right-looking elimination applies them. *)
    let npiv = ref 0 in
    for t = 0 to !nreach - 1 do
      let r = reach.(t) in
      if pos.(r) < j then begin
        pivotal.(!npiv) <- pos.(r);
        incr npiv
      end
    done;
    (* The positions are distinct, so any sort gives this order. *)
    sort_ints pivotal 0 !npiv;
    for q = 0 to !npiv - 1 do
      let pp = pivotal.(q) in
      let xi = x.(rowat.(pp)) in
      for k = l_cp.(pp) to l_cp.(pp + 1) - 1 do
        let r = lbuf.idx.(k) in
        x.(r) <- x.(r) -. (lbuf.data.(k) *. xi)
      done
    done;
    (* Pivot search over non-pivotal reach entries; everything outside
       the reach is an exact zero in the dense path.  Dense scans
       positions j..n-1 taking the first strictly-larger magnitude, so
       the winner is the smallest position attaining the maximum, seeded
       by the current diagonal position. *)
    let dr = rowat.(j) in
    let best_row = ref dr in
    let best_val = ref (if mark.(dr) = j then Float.abs x.(dr) else 0.) in
    for t = 0 to !nreach - 1 do
      let r = reach.(t) in
      if pos.(r) > j then begin
        let v = Float.abs x.(r) in
        if v > !best_val || (v = !best_val && pos.(r) < pos.(!best_row)) then begin
          best_val := v;
          best_row := r
        end
      end
    done;
    let pr = !best_row in
    let pivot = if mark.(pr) = j then x.(pr) else 0. in
    if pivot = 0. then raise (Linalg.Singular j);
    (* Record the swap exactly as the dense code performs it. *)
    if pr <> dr then begin
      let pq = pos.(pr) in
      pos.(pr) <- j;
      pos.(dr) <- pq;
      rowat.(j) <- pr;
      rowat.(pq) <- dr
    end;
    (* Emit U column j (pivotal rows ascending, then the diagonal) and
       L column j (multipliers, original row indices). *)
    for q = 0 to !npiv - 1 do
      let pp = pivotal.(q) in
      buf_push ubuf pp x.(rowat.(pp))
    done;
    u_diag.(j) <- pivot;
    for t = 0 to !nreach - 1 do
      let r = reach.(t) in
      if pos.(r) > j then buf_push lbuf r (x.(r) /. pivot)
    done;
    l_cp.(j + 1) <- lbuf.len;
    u_cp.(j + 1) <- ubuf.len;
    piv_ord.(j) <- rowat.(j)
  done;
  (* Convert the column spans to CSR over final pivot positions.  Rows
     fill in ascending column order because columns are visited in
     order, so no per-row sort is needed. *)
  let l_count = Array.make n 0 in
  for k = 0 to lbuf.len - 1 do
    let q = pos.(lbuf.idx.(k)) in
    l_count.(q) <- l_count.(q) + 1
  done;
  let l_rp = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    l_rp.(i + 1) <- l_rp.(i) + l_count.(i)
  done;
  let l_ci = Array.make lbuf.len 0 and l_v = Array.make lbuf.len 0. in
  let fill = Array.copy l_rp in
  for c = 0 to n - 1 do
    for k = l_cp.(c) to l_cp.(c + 1) - 1 do
      let q = pos.(lbuf.idx.(k)) in
      l_ci.(fill.(q)) <- c;
      l_v.(fill.(q)) <- lbuf.data.(k);
      fill.(q) <- fill.(q) + 1
    done
  done;
  let u_count = Array.make n 0 in
  for k = 0 to ubuf.len - 1 do
    u_count.(ubuf.idx.(k)) <- u_count.(ubuf.idx.(k)) + 1
  done;
  let u_rp = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    u_rp.(i + 1) <- u_rp.(i) + u_count.(i)
  done;
  let u_ci = Array.make ubuf.len 0 and u_v = Array.make ubuf.len 0. in
  let ufill = Array.copy u_rp in
  for c = 0 to n - 1 do
    for k = u_cp.(c) to u_cp.(c + 1) - 1 do
      let q = ubuf.idx.(k) in
      u_ci.(ufill.(q)) <- c;
      u_v.(ufill.(q)) <- ubuf.data.(k);
      ufill.(q) <- ufill.(q) + 1
    done
  done;
  { n; l_rp; l_ci; l_v; u_rp; u_ci; u_v; u_diag; piv = piv_ord }

let lu_solve lu b =
  let n = lu.n in
  if Array.length b <> n then invalid_arg "Sparse.lu_solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(lu.piv.(i))) in
  (* Row-oriented substitutions: each row accumulates in ascending
     column order, exactly like the dense inner loops. *)
  for i = 1 to n - 1 do
    for k = lu.l_rp.(i) to lu.l_rp.(i + 1) - 1 do
      x.(i) <- x.(i) -. (lu.l_v.(k) *. x.(lu.l_ci.(k)))
    done
  done;
  for i = n - 1 downto 0 do
    for k = lu.u_rp.(i) to lu.u_rp.(i + 1) - 1 do
      x.(i) <- x.(i) -. (lu.u_v.(k) *. x.(lu.u_ci.(k)))
    done;
    x.(i) <- x.(i) /. lu.u_diag.(i)
  done;
  x

(* ------------------------------------------------------------------ *)
(* Newton iteration matrix  M = alpha*I - beta*J                       *)
(* ------------------------------------------------------------------ *)

type newton = {
  m : t;
  diag_idx : int array; (* CSR slot of each diagonal entry of m *)
  scatter : int array; (* CSR slot in m for each CSR slot of the J pattern *)
}

let make_newton jpat =
  if jpat.rows <> jpat.cols then invalid_arg "Sparse.make_newton: not square";
  let n = jpat.rows in
  let entries = ref [] in
  for i = 0 to n - 1 do
    entries := (i, i) :: !entries;
    for k = jpat.row_ptr.(i) to jpat.row_ptr.(i + 1) - 1 do
      entries := (i, jpat.col_ind.(k)) :: !entries
    done
  done;
  let mpat = pattern_of_entries ~rows:n ~cols:n !entries in
  let m = create mpat in
  let diag_idx = Array.init n (fun i -> index mpat i i) in
  let scatter = Array.make (nnz jpat) 0 in
  for i = 0 to n - 1 do
    for k = jpat.row_ptr.(i) to jpat.row_ptr.(i + 1) - 1 do
      scatter.(k) <- index mpat i jpat.col_ind.(k)
    done
  done;
  { m; diag_idx; scatter }

let newton_matrix nw = nw.m

let newton_assemble nw ~(jac : t) ~alpha ~beta =
  if Array.length nw.scatter <> Array.length jac.v then
    invalid_arg "Sparse.newton_assemble: jacobian pattern mismatch";
  (* Dense builds every entry as [(if diag then alpha else 0.) -. beta*J];
     replaying the same two operations per structural entry keeps the
     matrix bitwise equal to the dense one. *)
  Array.fill nw.m.v 0 (Array.length nw.m.v) 0.;
  Array.iter (fun k -> nw.m.v.(k) <- alpha) nw.diag_idx;
  let nj = Array.length jac.v in
  for k = 0 to nj - 1 do
    let s = nw.scatter.(k) in
    nw.m.v.(s) <- nw.m.v.(s) -. (beta *. jac.v.(k))
  done;
  (* Diagonal slots with no J entry still need the dense no-op
     [alpha -. beta *. 0.] replayed: it is bitwise [alpha], so nothing
     to do. *)
  ()
