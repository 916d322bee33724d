(* Peephole / fusion optimiser over the flat register code of {!Vm}.

   The lowering emits write-once virtual registers (every register is
   assigned by exactly one instruction, except the join register of an
   [If], which is assigned by the final [Mov] of each branch).  That
   invariant is what makes the passes below simple and sound:

   - a register read always sees the value of its unique definition, so
     constant knowledge and copy chains never need invalidation;
   - fusing a consumer with its operand's definition only requires that
     any environment slots the definition reads are not stored to in
     between (jumps are forward-only, so the instructions executed
     between two points are a subset of the program-order range);
   - a pure instruction whose destination has zero reads is dead.

   Passes, iterated to a fixpoint: constant folding + strength reduction
   (including [Pow x 2] -> [Sqr], [Pow x (-1)] -> [Recip], negation
   folding), copy propagation, fusion ([Mul]+[Add] -> [Fma],
   [Add]+[Neg] -> [Sub]) and the load-load-mul-add superinstructions
   ([Vmul]/[Vmacc]) that dominate the bearing contact equations, then
   dead-store elimination.  Finally the code is compacted: dead
   instructions dropped, jump targets re-patched, registers and the
   constant pool renumbered densely.

   Only IEEE-exact rewrites are applied: [x*1 -> x], [x*(-1) -> -x],
   [x + (-y) -> x - y] and constant folding are bit-exact; [x+0 -> x]
   and [x*0 -> 0] are NOT (they mishandle -0, nan and infinities) and
   are deliberately absent.  [Fma] evaluates as two rounded operations
   ([a *. b +. c]), matching {!Eval.eval} exactly. *)

open Vm_code

type t = {
  code : int array;
  consts : float array;
  nregs : int;
  result : int;  (* register holding the final value, or -1 *)
}

(* Working arrays, reused across the programs of one compile: a fresh
   set per program would put several instruction-sized arrays on the
   major heap for every task.  Each grows to the largest program seen;
   every pass reads only the prefix it has initialised. *)
type scratch = {
  mutable op : int array;
  mutable dst : int array;
  mutable fa : int array;
  mutable fb : int array;
  mutable fc : int array;
  mutable live : bool array;
  mutable idx_map : int array;  (* length n + 1 *)
  mutable defc : int array;  (* the rest: one entry per register *)
  mutable defi : int array;
  mutable konst : float array;
  mutable known : bool array;
  mutable uses : int array;
  mutable reg_map : int array;
  mutable last_store : int array;
      (* per env slot, kept at -1 between passes: the last live [ste]
         to it before the instruction [fuse_pass] is at *)
  mutable env_readers : int array;
      (* per env slot, kept at 0 between passes: live instructions that
         read it, during [dse_pass] *)
}

let scratch () =
  {
    op = [||];
    dst = [||];
    fa = [||];
    fb = [||];
    fc = [||];
    live = [||];
    idx_map = [||];
    defc = [||];
    defi = [||];
    konst = [||];
    known = [||];
    uses = [||];
    reg_map = [||];
    last_store = [||];
    env_readers = [||];
  }

(* Grow [s] to hold [n] instructions, [nregs] registers and env slots
   below [nslots].  The per-slot tables start at their resting value,
   which the passes restore, so no program pays for the env size. *)
let reserve s n nregs nslots =
  let grow a len fill =
    if Array.length a >= len then a
    else Array.make (max len (2 * Array.length a)) fill
  in
  s.last_store <- grow s.last_store nslots (-1);
  s.env_readers <- grow s.env_readers nslots 0;
  s.op <- grow s.op n 0;
  s.dst <- grow s.dst n 0;
  s.fa <- grow s.fa n 0;
  s.fb <- grow s.fb n 0;
  s.fc <- grow s.fc n 0;
  s.live <- grow s.live n false;
  s.idx_map <- grow s.idx_map (n + 1) 0;
  s.defc <- grow s.defc nregs 0;
  s.defi <- grow s.defi nregs 0;
  s.konst <- grow s.konst nregs 0.;
  s.known <- grow s.known nregs false;
  s.uses <- grow s.uses nregs 0;
  s.reg_map <- grow s.reg_map nregs 0

let optimize ?(private_env_slot = fun _ -> false) s ~len (p : t) =
  let n = len / stride in
  if n = 0 then { p with code = [||] }
  else begin
    (* The env slots the program names, whether it stores to any, and
       whether to a private one: programs without stores (whole-RHS and
       Jacobian programs) skip the per-slot bookkeeping below. *)
    let nslots = ref 0 and stores = ref false and private_stores = ref false in
    for i = 0 to n - 1 do
      let w = i * stride in
      let o = p.code.(w) in
      let slot k = nslots := max !nslots (p.code.(w + k) + 1) in
      if o = op_ldv then slot 2
      else if o = op_vmul then begin
        slot 2;
        slot 3
      end
      else if o = op_vmacc then begin
        slot 3;
        slot 4
      end
      else if o = op_ste then begin
        slot 4;
        stores := true;
        if private_env_slot p.code.(w + 4) then private_stores := true
      end
    done;
    let stores = !stores and private_stores = !private_stores in
    reserve s n p.nregs !nslots;
    let op = s.op and dst = s.dst and fa = s.fa and fb = s.fb and fc = s.fc in
    for i = 0 to n - 1 do
      op.(i) <- p.code.((i * stride) + 0);
      dst.(i) <- p.code.((i * stride) + 1);
      fa.(i) <- p.code.((i * stride) + 2);
      fb.(i) <- p.code.((i * stride) + 3);
      fc.(i) <- p.code.((i * stride) + 4)
    done;
    let live = s.live in
    Array.fill live 0 n true;
    (* Growable constant pool.  Existing constants keep their indices
       (even duplicates, so instruction operands stay valid); new
       constants are deduplicated by bit pattern, which keeps -0.0 and
       0.0 distinct. *)
    let pool_vals = ref (Array.make (max 8 (Array.length p.consts)) 0.) in
    let pool_n = ref 0 in
    let pool_tbl : (int64, int) Hashtbl.t = Hashtbl.create 16 in
    let push_const x =
      if !pool_n >= Array.length !pool_vals then begin
        let bigger = Array.make (2 * Array.length !pool_vals) 0. in
        Array.blit !pool_vals 0 bigger 0 !pool_n;
        pool_vals := bigger
      end;
      !pool_vals.(!pool_n) <- x;
      let key = Int64.bits_of_float x in
      if not (Hashtbl.mem pool_tbl key) then Hashtbl.add pool_tbl key !pool_n;
      incr pool_n
    in
    Array.iter push_const p.consts;
    let pool x =
      match Hashtbl.find_opt pool_tbl (Int64.bits_of_float x) with
      | Some i -> i
      | None ->
          let i = !pool_n in
          push_const x;
          i
    in
    let const_val i = !pool_vals.(i) in
    (* Register reads of an instruction, via the field kinds. *)
    let iter_reg_reads i f =
      let _, ka, kb, kc = field_kinds op.(i) in
      if ka = K_reg then f fa.(i);
      if kb = K_reg then f fb.(i);
      if kc = K_reg then f fc.(i)
    in
    let defc = s.defc and defi = s.defi in
    let compute_defs () =
      Array.fill defc 0 p.nregs 0;
      Array.fill defi 0 p.nregs (-1);
      for i = 0 to n - 1 do
        if live.(i) && writes_reg op.(i) then begin
          defc.(dst.(i)) <- defc.(dst.(i)) + 1;
          defi.(dst.(i)) <- i
        end
      done
    in
    (* Unique definition of register [r], or -1.  Multi-definition
       registers (If joins) are opaque to every pass. *)
    let def r = if defc.(r) = 1 then defi.(r) else -1 in
    (* ---- pass: constant folding and strength reduction ---- *)
    let fold_pass () =
      compute_defs ();
      let konst = s.konst and known = s.known in
      Array.fill konst 0 p.nregs nan;
      Array.fill known 0 p.nregs false;
      let changed = ref false in
      let set_ldc i x =
        op.(i) <- op_ldc;
        fa.(i) <- 0;
        fb.(i) <- 0;
        fc.(i) <- pool x;
        changed := true
      in
      for i = 0 to n - 1 do
        if live.(i) then begin
          let k r = if known.(r) then Some konst.(r) else None in
          let o = op.(i) in
          if o = op_add || o = op_sub then begin
            match (k fa.(i), k fb.(i)) with
            | Some x, Some y ->
                set_ldc i (if o = op_add then x +. y else x -. y)
            | _, Some y ->
                (* x - y = x + (-y) exactly, so both collapse to addk. *)
                op.(i) <- op_addk;
                fb.(i) <- 0;
                fc.(i) <- pool (if o = op_add then y else -.y);
                changed := true
            | Some x, None when o = op_add ->
                op.(i) <- op_addk;
                fa.(i) <- fb.(i);
                fb.(i) <- 0;
                fc.(i) <- pool x;
                changed := true
            | _ -> ()
          end
          else if o = op_mul then begin
            match (k fa.(i), k fb.(i)) with
            | Some x, Some y -> set_ldc i (x *. y)
            | Some x, None | None, Some x ->
                let other = if known.(fa.(i)) then fb.(i) else fa.(i) in
                if x = -1. then begin
                  (* x * -1 = -x exactly. *)
                  op.(i) <- op_neg;
                  fa.(i) <- other;
                  fb.(i) <- 0
                end
                else if x = 1. then begin
                  (* x * 1 = x exactly. *)
                  op.(i) <- op_mov;
                  fa.(i) <- other;
                  fb.(i) <- 0
                end
                else begin
                  op.(i) <- op_mulk;
                  fa.(i) <- other;
                  fb.(i) <- 0;
                  fc.(i) <- pool x
                end;
                changed := true
            | None, None ->
                if fa.(i) = fb.(i) then begin
                  op.(i) <- op_sqr;
                  fb.(i) <- 0;
                  changed := true
                end
          end
          else if o = op_pow then begin
            match (k fa.(i), k fb.(i)) with
            | Some x, Some y -> set_ldc i (Expr.eval_pow x y)
            | None, Some 2. ->
                op.(i) <- op_sqr;
                fb.(i) <- 0;
                changed := true
            | None, Some 1. ->
                (* IEEE: pow (x, 1) = x for every x, including nan. *)
                op.(i) <- op_mov;
                fb.(i) <- 0;
                changed := true
            | None, Some y when y = -1. ->
                op.(i) <- op_recip;
                fb.(i) <- 0;
                changed := true
            | _ -> ()
          end
          else if o = op_neg then begin
            match k fa.(i) with Some x -> set_ldc i (-.x) | None -> ()
          end
          else if o = op_sqr then begin
            match k fa.(i) with Some x -> set_ldc i (x *. x) | None -> ()
          end
          else if o = op_recip then begin
            match k fa.(i) with Some x -> set_ldc i (1. /. x) | None -> ()
          end
          else if o = op_addk then begin
            match k fa.(i) with
            | Some x -> set_ldc i (x +. const_val fc.(i))
            | None -> ()
          end
          else if o = op_mulk then begin
            match k fa.(i) with
            | Some x -> set_ldc i (x *. const_val fc.(i))
            | None -> ()
          end
          else if o = op_fma then begin
            match (k fa.(i), k fb.(i), k fc.(i)) with
            | Some x, Some y, Some z -> set_ldc i ((x *. y) +. z)
            | _ -> ()
          end
          else if o = op_call1 then begin
            match k fa.(i) with
            | Some x ->
                set_ldc i (Expr.eval_func (func_of_prim1 fc.(i)) [ x ])
            | None -> ()
          end
          else if o = op_call2 then begin
            match (k fa.(i), k fb.(i)) with
            | Some x, Some y ->
                set_ldc i (Expr.eval_func (func_of_prim2 fc.(i)) [ x; y ])
            | _ -> ()
          end;
          (* Record constant knowledge for single-definition registers. *)
          let o = op.(i) in
          if writes_reg o && defc.(dst.(i)) = 1 then begin
            if o = op_ldc then begin
              known.(dst.(i)) <- true;
              konst.(dst.(i)) <- const_val fc.(i)
            end
            else if o = op_mov && known.(fa.(i)) then begin
              known.(dst.(i)) <- true;
              konst.(dst.(i)) <- konst.(fa.(i))
            end
          end
        end
      done;
      !changed
    in
    (* ---- pass: copy propagation ---- *)
    let copyprop_pass () =
      compute_defs ();
      let rec root r =
        let j = def r in
        if j >= 0 && op.(j) = op_mov then root fa.(j) else r
      in
      let changed = ref false in
      for i = 0 to n - 1 do
        if live.(i) then begin
          let _, ka, kb, kc = field_kinds op.(i) in
          let subst kind get set =
            if kind = K_reg then begin
              let r = get () in
              let r' = root r in
              if r' <> r then begin
                set r';
                changed := true
              end
            end
          in
          subst ka (fun () -> fa.(i)) (fun v -> fa.(i) <- v);
          subst kb (fun () -> fb.(i)) (fun v -> fb.(i) <- v);
          subst kc (fun () -> fc.(i)) (fun v -> fc.(i) <- v)
        end
      done;
      !changed
    in
    (* ---- pass: fusion and superinstructions ---- *)
    let fuse_pass () =
      compute_defs ();
      let last_store = s.last_store in
      (* No store to env slot [s] strictly between instruction [j] and
         the one being rewritten: the last store before it precedes
         [j].  Jumps are forward-only, so the instructions executed
         between two program points lie within the program-order
         range. *)
      let env_clean s j = last_store.(s) < j in
      let changed = ref false in
      (* Rewrite instruction i once if a pattern applies.  Reading a
         fused operand's own operands is sound because registers are
         write-once: their values cannot change between the operand's
         definition and i. *)
      let rewrite i =
        let o = op.(i) in
        if o = op_add then begin
          let ja = def fa.(i) and jb = def fb.(i) in
          let try_operand j other =
            if j < 0 || j >= i then false
            else if op.(j) = op_neg then begin
              (* x + (-y) = x - y exactly. *)
              op.(i) <- op_sub;
              let y = fa.(j) in
              fa.(i) <- other;
              fb.(i) <- y;
              true
            end
            else if op.(j) = op_mul then begin
              op.(i) <- op_fma;
              let x = fa.(j) and y = fb.(j) in
              fa.(i) <- x;
              fb.(i) <- y;
              fc.(i) <- other;
              true
            end
            else if
              op.(j) = op_vmul
              && env_clean fa.(j) j
              && env_clean fb.(j) j
            then begin
              op.(i) <- op_vmacc;
              let sa = fa.(j) and sb = fb.(j) in
              fa.(i) <- other;
              fb.(i) <- sa;
              fc.(i) <- sb;
              true
            end
            else false
          in
          (* Prefer the right operand: left-folded accumulation chains
             put the fresh product there. *)
          try_operand jb fa.(i) || try_operand ja fb.(i)
        end
        else if o = op_sub then begin
          let jb = def fb.(i) in
          if jb >= 0 && jb < i && op.(jb) = op_neg then begin
            (* x - (-y) = x + y exactly. *)
            op.(i) <- op_add;
            fb.(i) <- fa.(jb);
            true
          end
          else false
        end
        else if o = op_neg then begin
          let ja = def fa.(i) in
          if ja >= 0 && ja < i && op.(ja) = op_neg then begin
            op.(i) <- op_mov;
            fa.(i) <- fa.(ja);
            true
          end
          else false
        end
        else if o = op_mul then begin
          let ja = def fa.(i) and jb = def fb.(i) in
          if
            ja >= 0 && jb >= 0 && ja < i && jb < i
            && op.(ja) = op_ldv && op.(jb) = op_ldv
            && env_clean fa.(ja) ja
            && env_clean fa.(jb) jb
          then begin
            op.(i) <- op_vmul;
            let sa = fa.(ja) and sb = fa.(jb) in
            fa.(i) <- sa;
            fb.(i) <- sb;
            true
          end
          else false
        end
        else if o = op_fma then begin
          let ja = def fa.(i) and jb = def fb.(i) in
          if
            ja >= 0 && jb >= 0 && ja < i && jb < i
            && op.(ja) = op_ldv && op.(jb) = op_ldv
            && env_clean fa.(ja) ja
            && env_clean fa.(jb) jb
          then begin
            op.(i) <- op_vmacc;
            let sa = fa.(ja) and sb = fa.(jb) in
            fa.(i) <- fc.(i);
            fb.(i) <- sa;
            fc.(i) <- sb;
            true
          end
          else false
        end
        else false
      in
      for i = 0 to n - 1 do
        if live.(i) then begin
          while rewrite i do
            changed := true
          done;
          if op.(i) = op_ste then last_store.(fc.(i)) <- i
        end
      done;
      if stores then
        for i = 0 to n - 1 do
          if op.(i) = op_ste then last_store.(fc.(i)) <- -1
        done;
      !changed
    in
    (* ---- pass: dead-store elimination ---- *)
    let dse_pass () =
      let uses = s.uses in
      Array.fill uses 0 p.nregs 0;
      for i = 0 to n - 1 do
        if live.(i) then iter_reg_reads i (fun r -> uses.(r) <- uses.(r) + 1)
      done;
      let readers = s.env_readers in
      (* Add [d] to the reader count of each env slot instruction [i]
         reads.  Only stores to private slots consult the counts. *)
      let count_env_reads i d =
        if private_stores then begin
          let o = op.(i) in
          let add s = readers.(s) <- readers.(s) + d in
          if o = op_ldv then add fa.(i)
          else if o = op_vmul then begin
            add fa.(i);
            add fb.(i)
          end
          else if o = op_vmacc then begin
            add fb.(i);
            add fc.(i)
          end
        end
      in
      for i = 0 to n - 1 do
        if live.(i) then count_env_reads i 1
      done;
      let changed = ref false in
      let deleted = ref true in
      while !deleted do
        deleted := false;
        for i = 0 to n - 1 do
          if live.(i) then begin
            let o = op.(i) in
            if writes_reg o && uses.(dst.(i)) = 0 && dst.(i) <> p.result
            then begin
              live.(i) <- false;
              iter_reg_reads i (fun r -> uses.(r) <- uses.(r) - 1);
              count_env_reads i (-1);
              deleted := true;
              changed := true
            end
            else if
              o = op_ste && private_env_slot fc.(i) && readers.(fc.(i)) = 0
            then begin
              (* A task-private CSE temporary every consumer of which
                 was folded away: the store itself is dead. *)
              live.(i) <- false;
              uses.(fa.(i)) <- uses.(fa.(i)) - 1;
              deleted := true;
              changed := true
            end
          end
        done
      done;
      (* Back to all zeros: subtract the readers still live. *)
      for i = 0 to n - 1 do
        if live.(i) then count_env_reads i (-1)
      done;
      !changed
    in
    (* ---- drive to fixpoint ---- *)
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && !rounds < 8 do
      incr rounds;
      let c1 = fold_pass () in
      let c2 = copyprop_pass () in
      let c3 = fuse_pass () in
      let c4 = dse_pass () in
      continue_ := c1 || c2 || c3 || c4
    done;
    (* ---- compact: drop dead code, renumber targets/registers/pool ---- *)
    let idx_map = s.idx_map in
    let m = ref 0 in
    for i = 0 to n - 1 do
      idx_map.(i) <- !m;
      if live.(i) then incr m
    done;
    idx_map.(n) <- !m;
    let n' = !m in
    let reg_map = s.reg_map in
    Array.fill reg_map 0 p.nregs (-1);
    let next_reg = ref 0 in
    let map_reg r =
      if reg_map.(r) < 0 then begin
        reg_map.(r) <- !next_reg;
        incr next_reg
      end;
      reg_map.(r)
    in
    let cmap : (int64, int) Hashtbl.t = Hashtbl.create 16 in
    let new_consts = ref [] in
    let nc = ref 0 in
    let map_const ci =
      let x = const_val ci in
      let key = Int64.bits_of_float x in
      match Hashtbl.find_opt cmap key with
      | Some i -> i
      | None ->
          let i = !nc in
          Hashtbl.add cmap key i;
          new_consts := x :: !new_consts;
          incr nc;
          i
    in
    let code = Array.make (n' * stride) 0 in
    let w = ref 0 in
    for i = 0 to n - 1 do
      if live.(i) then begin
        let o = op.(i) in
        let _, ka, kb, kc = field_kinds o in
        let map_field kind v =
          match kind with
          | K_reg -> map_reg v
          | K_const -> map_const v
          | K_target -> idx_map.(v / stride) * stride
          | _ -> v
        in
        let d = if writes_reg o then map_reg dst.(i) else dst.(i) in
        code.(!w) <- o;
        code.(!w + 1) <- d;
        code.(!w + 2) <- map_field ka fa.(i);
        code.(!w + 3) <- map_field kb fb.(i);
        code.(!w + 4) <- map_field kc fc.(i);
        w := !w + stride
      end
    done;
    let result =
      if p.result < 0 then p.result
      else if reg_map.(p.result) >= 0 then reg_map.(p.result)
      else map_reg p.result
    in
    {
      code;
      consts = Array.of_list (List.rev !new_consts);
      nregs = max 1 !next_reg;
      result;
    }
  end
