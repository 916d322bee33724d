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

   Passes, in rounds: constant folding + strength reduction (including
   [Pow x 2] -> [Sqr], [Pow x (-1)] -> [Recip], negation folding), copy
   propagation, fusion ([Mul]+[Add] -> [Fma], [Add]+[Neg] -> [Sub]) and
   the load-load-mul-add superinstructions ([Vmul]/[Vmacc]) that
   dominate the bearing contact equations, then dead-store elimination.
   The lowering already emits the constant-operand forms ([Addk],
   [Mulk], [Neg], [Sqr], [Recip]) for literal constants; folding finds
   the constants known only here, in raw-constructor trees (a constant
   that does not lead its sum or product, [x ^ 1]) and folded calls.
   On bearing2d, powerplant, servo, bearing_scaled-20/40 and
   heat-500/2000 that is 6 rewrites in 740 programs, all in bearing
   task programs.  Each pass finishes its own work in one sweep, and a
   round does what a pass leaves for a later one, so the driver runs
   another round only when a pass reports work for an earlier one: a
   [Mov] fusion made, or a product of a register by itself that copy
   propagation exposed.  It reaches the fixpoint
   without a round to confirm it.  Finally the code is compacted: dead
   instructions dropped, jump targets re-patched, registers and the
   constant pool renumbered densely.

   Only IEEE-exact rewrites are applied: [x*1 -> x], [x*(-1) -> -x],
   [x + (-y) -> x - y] and constant folding give the same bits for
   every non-NaN result, and a NaN for a NaN (whose sign bit may
   differ: x86-64 keeps it in [-1. *. nan] and flips it in [-. nan]);
   [x+0 -> x] and [x*0 -> 0] are NOT exact (they mishandle -0, nan and
   infinities) and are deliberately absent.  [Fma] evaluates as two
   rounded operations ([a *. b +. c]), matching {!Eval.eval} exactly. *)

open Vm_code

type t = {
  code : int array;
  consts : float array;
  nregs : int;
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
  mutable defi : int array;  (* the rest: one entry per register *)
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
  s.defi <- grow s.defi nregs 0;
  s.konst <- grow s.konst nregs 0.;
  s.known <- grow s.known nregs false;
  s.uses <- grow s.uses nregs 0;
  s.reg_map <- grow s.reg_map nregs 0

(* Per opcode: whether operand field a, b or c names a register, and
   whether the instruction writes one.  Table lookups, where
   {!Vm_code.field_kinds} and {!Vm_code.writes_reg} would cost a call
   per instruction. *)
let reads_reg field = Array.init n_opcodes (fun o -> field (field_kinds o) = K_reg)
let reg_a = reads_reg (fun (_, a, _, _) -> a)
let reg_b = reads_reg (fun (_, _, b, _) -> b)
let reg_c = reads_reg (fun (_, _, _, c) -> c)
let writes = Array.init n_opcodes writes_reg

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
      if o = op_ldv then nslots := max !nslots (p.code.(w + 2) + 1)
      else if o = op_vmul then
        nslots := max !nslots (max p.code.(w + 2) p.code.(w + 3) + 1)
      else if o = op_vmacc then
        nslots := max !nslots (max p.code.(w + 3) p.code.(w + 4) + 1)
      else if o = op_ste then begin
        nslots := max !nslots (p.code.(w + 4) + 1);
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
       0.0 distinct.  The bit-pattern table is built on the first new
       constant: most programs reach the pass with their constants
       already in operand form and add none. *)
    let pool_vals = ref (Array.make (max 8 (Array.length p.consts)) 0.) in
    Array.blit p.consts 0 !pool_vals 0 (Array.length p.consts);
    let pool_n = ref (Array.length p.consts) in
    let pool_tbl : (int64, int) Hashtbl.t = Hashtbl.create 16 in
    let remember i =
      let key = Int64.bits_of_float !pool_vals.(i) in
      if not (Hashtbl.mem pool_tbl key) then Hashtbl.add pool_tbl key i
    in
    let pool x =
      if Hashtbl.length pool_tbl = 0 then
        for i = 0 to !pool_n - 1 do
          remember i
        done;
      match Hashtbl.find_opt pool_tbl (Int64.bits_of_float x) with
      | Some i -> i
      | None ->
          let i = !pool_n in
          if i >= Array.length !pool_vals then begin
            let bigger = Array.make (2 * i) 0. in
            Array.blit !pool_vals 0 bigger 0 i;
            pool_vals := bigger
          end;
          !pool_vals.(i) <- x;
          remember i;
          incr pool_n;
          i
    in
    (* [defi.(r)]: the instruction defining register [r], -1 if none
       does, -2 if several do.  Multi-definition registers (If joins)
       are opaque to every pass.  Only dead instructions leave the
       program, so the definitions the passes look up (those of
       registers a live instruction reads) are the same from one pass
       to the next: one count per round. *)
    let defi = s.defi in
    let compute_defs () =
      Array.fill defi 0 p.nregs (-1);
      for i = 0 to n - 1 do
        if live.(i) && writes.(op.(i)) then
          defi.(dst.(i)) <- (if defi.(dst.(i)) = -1 then i else -2)
      done
    in
    (* Unique definition of register [r], or a negative number. *)
    let def r = defi.(r) in
    let konst = s.konst and known = s.known in
    (* ---- pass: constant folding and strength reduction ----

       One forward sweep finds every folding: an operand's definition
       precedes its reads, so its value is known, if ever, by the time
       a reader is visited. *)
    let fold_pass () =
      Array.fill known 0 p.nregs false;
      let set_ldc i x =
        op.(i) <- op_ldc;
        fa.(i) <- 0;
        fb.(i) <- 0;
        fc.(i) <- pool x
      in
      for i = 0 to n - 1 do
        if live.(i) then begin
          let o = op.(i) and a = fa.(i) and b = fb.(i) in
          if o = op_add || o = op_sub then begin
            if known.(b) then begin
              if known.(a) then
                set_ldc i
                  (if o = op_add then konst.(a) +. konst.(b)
                   else konst.(a) -. konst.(b))
              else begin
                (* x - y = x + (-y) exactly, so both collapse to addk. *)
                op.(i) <- op_addk;
                fb.(i) <- 0;
                fc.(i) <- pool (if o = op_add then konst.(b) else -.konst.(b))
              end
            end
            else if known.(a) && o = op_add then begin
              op.(i) <- op_addk;
              fa.(i) <- b;
              fb.(i) <- 0;
              fc.(i) <- pool konst.(a)
            end
          end
          else if o = op_mul then begin
            if known.(a) && known.(b) then set_ldc i (konst.(a) *. konst.(b))
            else if known.(a) || known.(b) then begin
              let x = if known.(a) then konst.(a) else konst.(b) in
              fa.(i) <- (if known.(a) then b else a);
              fb.(i) <- 0;
              (* x * -1 = -x and x * 1 = x exactly, up to a NaN's sign. *)
              if x = -1. then op.(i) <- op_neg
              else if x = 1. then op.(i) <- op_mov
              else begin
                op.(i) <- op_mulk;
                fc.(i) <- pool x
              end
            end
            else if a = b then begin
              op.(i) <- op_sqr;
              fb.(i) <- 0
            end
          end
          else if o = op_pow then begin
            if known.(b) then begin
              let y = konst.(b) in
              if known.(a) then set_ldc i (Expr.eval_pow konst.(a) y)
              else if y = 2. || y = 1. || y = -1. then begin
                (* IEEE: pow (x, 1) = x for every x, including nan. *)
                op.(i) <-
                  (if y = 2. then op_sqr else if y = 1. then op_mov else op_recip);
                fb.(i) <- 0
              end
            end
          end
          else if reg_a.(o) && known.(a) then begin
            let x = konst.(a) in
            if o = op_neg then set_ldc i (-.x)
            else if o = op_sqr then set_ldc i (x *. x)
            else if o = op_recip then set_ldc i (1. /. x)
            else if o = op_addk then set_ldc i (x +. !pool_vals.(fc.(i)))
            else if o = op_mulk then set_ldc i (x *. !pool_vals.(fc.(i)))
            else if o = op_fma then begin
              if known.(b) && known.(fc.(i)) then
                set_ldc i ((x *. konst.(b)) +. konst.(fc.(i)))
            end
            else if o = op_call1 then
              set_ldc i (Expr.eval_func (func_of_prim1 fc.(i)) [ x ])
            else if o = op_call2 then begin
              if known.(b) then
                set_ldc i
                  (Expr.eval_func (func_of_prim2 fc.(i)) [ x; konst.(b) ])
            end
          end;
          (* Record constant knowledge for single-definition registers. *)
          let o = op.(i) and d = dst.(i) in
          if writes.(o) && defi.(d) = i then begin
            if o = op_ldc then begin
              known.(d) <- true;
              konst.(d) <- !pool_vals.(fc.(i))
            end
            else if o = op_mov && known.(fa.(i)) then begin
              known.(d) <- true;
              konst.(d) <- konst.(fa.(i))
            end
          end
        end
      done
    in
    (* ---- pass: copy propagation ----

       Returns whether it made work for folding: a product of a
       register by itself, now a square. *)
    let copyprop_pass () =
      let rec root r =
        let j = def r in
        if j >= 0 && op.(j) = op_mov then root fa.(j) else r
      in
      let again = ref false in
      for i = 0 to n - 1 do
        if live.(i) then begin
          let o = op.(i) in
          if reg_a.(o) then fa.(i) <- root fa.(i);
          if reg_b.(o) then fb.(i) <- root fb.(i);
          if reg_c.(o) then fc.(i) <- root fc.(i);
          if o = op_mul && fa.(i) = fb.(i) then again := true
        end
      done;
      !again
    in
    (* ---- pass: fusion and superinstructions ----

       Returns whether it made work for an earlier pass: a [mov] to
       propagate.  It makes none for folding: the operands it fuses
       were not constant, or folding would have rewritten the
       instructions it fuses. *)
    let fuse_pass () =
      let last_store = s.last_store in
      (* No store to env slot [s] strictly between instruction [j] and
         the one being rewritten: the last store before it precedes
         [j].  Jumps are forward-only, so the instructions executed
         between two points lie within the program-order range. *)
      let env_clean s j = last_store.(s) < j in
      (* Fuse instruction [j], defining one operand of add [i], into it;
         [other] is the add's other operand. *)
      let try_operand i j other =
        if j < 0 || j >= i then false
        else if op.(j) = op_neg then begin
          (* x + (-y) = x - y exactly, up to a NaN's sign. *)
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
        else if op.(j) = op_vmul && env_clean fa.(j) j && env_clean fb.(j) j
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
      (* Rewrite instruction i once if a pattern applies.  Reading a
         fused operand's own operands is sound because registers are
         write-once: their values cannot change between the operand's
         definition and i. *)
      let rewrite i =
        let o = op.(i) in
        if o = op_add then
          (* Prefer the right operand: left-folded accumulation chains
             put the fresh product there. *)
          let a = fa.(i) and b = fb.(i) in
          try_operand i (def b) a || try_operand i (def a) b
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
        else if o = op_mul || o = op_fma then begin
          let ja = def fa.(i) and jb = def fb.(i) in
          if
            ja >= 0 && jb >= 0 && ja < i && jb < i
            && op.(ja) = op_ldv && op.(jb) = op_ldv
            && env_clean fa.(ja) ja
            && env_clean fa.(jb) jb
          then begin
            let sa = fa.(ja) and sb = fa.(jb) in
            if o = op_mul then begin
              op.(i) <- op_vmul;
              fa.(i) <- sa;
              fb.(i) <- sb
            end
            else begin
              op.(i) <- op_vmacc;
              fa.(i) <- fc.(i);
              fb.(i) <- sa;
              fc.(i) <- sb
            end;
            true
          end
          else false
        end
        else false
      in
      let again = ref false in
      for i = 0 to n - 1 do
        if live.(i) then begin
          if rewrite i then begin
            while rewrite i do
              ()
            done;
            if op.(i) = op_mov then again := true
          end;
          if op.(i) = op_ste then last_store.(fc.(i)) <- i
        end
      done;
      if stores then
        for i = 0 to n - 1 do
          if op.(i) = op_ste then last_store.(fc.(i)) <- -1
        done;
      !again
    in
    (* ---- pass: dead-store elimination ---- *)
    let dse_pass () =
      let uses = s.uses in
      Array.fill uses 0 p.nregs 0;
      let use i d =
        let o = op.(i) in
        if reg_a.(o) then uses.(fa.(i)) <- uses.(fa.(i)) + d;
        if reg_b.(o) then uses.(fb.(i)) <- uses.(fb.(i)) + d;
        if reg_c.(o) then uses.(fc.(i)) <- uses.(fc.(i)) + d
      in
      for i = 0 to n - 1 do
        if live.(i) then use i 1
      done;
      let readers = s.env_readers in
      (* Add [d] to the reader count of each env slot instruction [i]
         reads.  Only stores to private slots consult the counts. *)
      let count_env_reads i d =
        if private_stores then begin
          let o = op.(i) in
          if o = op_ldv then readers.(fa.(i)) <- readers.(fa.(i)) + d
          else if o = op_vmul then begin
            readers.(fa.(i)) <- readers.(fa.(i)) + d;
            readers.(fb.(i)) <- readers.(fb.(i)) + d
          end
          else if o = op_vmacc then begin
            readers.(fb.(i)) <- readers.(fb.(i)) + d;
            readers.(fc.(i)) <- readers.(fc.(i)) + d
          end
        end
      in
      for i = 0 to n - 1 do
        if live.(i) then count_env_reads i 1
      done;
      (* Deleting is monotone, so the order of deletion does not change
         what survives.  Sweeping backwards deletes a dead chain in one
         sweep: the definitions a deleted instruction read precede it.
         Only a private store can die after its sweep passed it (when a
         read of its slot precedes it), so only programs with private
         stores sweep until a sweep deletes nothing. *)
      let sweep () =
        let deleted = ref false in
        for i = n - 1 downto 0 do
          if live.(i) then begin
            let o = op.(i) in
            if writes.(o) && uses.(dst.(i)) = 0 then begin
              live.(i) <- false;
              use i (-1);
              count_env_reads i (-1);
              deleted := true
            end
            else if
              o = op_ste && private_env_slot fc.(i) && readers.(fc.(i)) = 0
            then begin
              (* A task-private CSE temporary every consumer of which
                 was folded away: the store itself is dead. *)
              live.(i) <- false;
              use i (-1);
              deleted := true
            end
          end
        done;
        !deleted
      in
      while sweep () && private_stores do
        ()
      done;
      (* Back to all zeros: subtract the readers still live. *)
      for i = 0 to n - 1 do
        if live.(i) then count_env_reads i (-1)
      done
    in
    (* ---- drive to the fixpoint ----

       Each pass leaves nothing for itself to do, and work it makes for
       a later pass is done in the same round.  So another round is
       needed exactly when a pass made work for an earlier one, which
       copy propagation and fusion report.  Dead-store elimination
       makes none: it deletes only what no live instruction reads, and a
       store whose deletion could unblock a fusion has a live reader,
       the load the fusion would absorb.  Without a report, a further
       round would change nothing. *)
    let rec rounds () =
      compute_defs ();
      fold_pass ();
      let again = copyprop_pass () in
      let again = fuse_pass () || again in
      dse_pass ();
      if again then rounds ()
    in
    rounds ();
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
    (* New pool index of each old one, numbered in order of first use
       and deduplicated by bit pattern. *)
    let const_map = Array.make !pool_n (-1) in
    let cmap : (int64, int) Hashtbl.t = Hashtbl.create 16 in
    let new_consts = ref [] in
    let nc = ref 0 in
    let map_const ci =
      if const_map.(ci) < 0 then begin
        let x = !pool_vals.(ci) in
        let key = Int64.bits_of_float x in
        const_map.(ci) <-
          (match Hashtbl.find_opt cmap key with
          | Some i -> i
          | None ->
              let i = !nc in
              Hashtbl.add cmap key i;
              new_consts := x :: !new_consts;
              incr nc;
              i)
      end;
      const_map.(ci)
    in
    let map_field kind v =
      match kind with
      | K_reg -> map_reg v
      | K_const -> map_const v
      | K_target -> idx_map.(v / stride) * stride
      | _ -> v
    in
    let code = Array.make (n' * stride) 0 in
    let w = ref 0 in
    for i = 0 to n - 1 do
      if live.(i) then begin
        let o = op.(i) in
        let _, ka, kb, kc = field_kinds o in
        let d = if writes.(o) then map_reg dst.(i) else dst.(i) in
        code.(!w) <- o;
        code.(!w + 1) <- d;
        code.(!w + 2) <- map_field ka fa.(i);
        code.(!w + 3) <- map_field kb fb.(i);
        code.(!w + 4) <- map_field kc fc.(i);
        w := !w + stride
      end
    done;
    {
      code;
      consts = Array.of_list (List.rev !new_consts);
      nregs = max 1 !next_reg;
    }
  end
