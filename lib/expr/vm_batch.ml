(* Batched SoA interpreter over the register VM's instruction stream.

   A batch instance holds one [float array] of length [width] per
   virtual register (structure of arrays, batch-major), so one
   instruction decode drives the whole batch: the per-op dispatch cost
   of the scalar VM is amortised over [width] lanes and the inner loops
   are tight float-array kernels.

   Per lane, the arithmetic is copied verbatim from {!Vm.loop} —
   including [Expr.eval_pow], the inlined [Float.min]/[Float.max]
   semantics and the two-rounding [fma] — so lane [j] of a batch run is
   Int64-bitwise identical to a scalar run of the same program over
   lane [j]'s environment.  Batch width 1 therefore reproduces the
   scalar VM exactly.

   There is one instruction kernel, [sloop], which runs a jump-free
   stretch of code unmasked over a list of lane indices.  Control flow
   ([If] lowering: forward-only [jnot]/[jmp] with a join register, see
   {!Vm}) is linearised SIMT-style by the [drive] walk: a per-lane
   wake-up pc [sleep] puts lanes to sleep over the branch arm they are
   not taking, and each segment between jumps and wake-ups runs as
   exactly one [sloop] call over the lanes awake in it, compacted into
   an index list: however finely the awake lanes interleave, each
   instruction of a segment is decoded once.  Because jumps are
   forward-only and structured, every lane executes exactly the
   instruction subsequence the scalar interpreter would, in the same
   order.  A jump-free program is one segment and one [sloop] call
   over the identity list.

   [create] conditions the instruction stream for batched execution
   (virtual-register compaction, load/consumer fusion — see the passes
   below); both rewrites preserve per-lane arithmetic bitwise.

   All mutable state — register rows, the sleep array, the awake-lane
   buffer, env/out columns — is indexed by lane (a run over lanes
   [lo..hi] writes the buffer only at positions [lo..hi]), so running
   disjoint lane ranges of the same instance from different domains is
   safe (the parallel ensemble driver relies on this). *)

type t = {
  code : int array;
  consts : float array;
  width : int;
  nregs : int;
  env_size : int;
  out_size : int;
  env_cols : int array;
  out_cols : int array;
      (* the env/out slots the code indexes, each once: [exec] checks
         these columns' lengths on every call *)
  regs : float array array; (* nregs rows of length width *)
  sleep : int array; (* per-lane wake-up pc: lane [j] is awake at [pc]
                        iff [sleep.(j) <= pc] *)
  ident : int array; (* the lane list [0..width-1], immutable: the lanes
                        of a segment no lane sleeps in *)
  lanes : int array; (* the awake lanes of the current segment, compacted
                        per call from position [lo]: see [drive] *)
  njump : int array; (* per op: code offset of the next jmp/jnot at or
                        after it (code length if none); ends the
                        jump-free segments [drive] runs unmasked *)
}

let () =
  (* Same literal-opcode contract as the scalar interpreter. *)
  assert (Vm_code.stride = 5);
  assert (Vm_code.op_jmp = 17 && Vm_code.op_jnot = 18)

(* ---- register compaction ----

   The compiler emits (almost) write-once virtual registers, so a
   program's register count grows with its length — hundreds of rows
   for the big generated tasks.  The scalar VM does not care (a row is
   one float), but here every row is [width] floats and a few hundred
   rows put the register file far outside the cache, which is exactly
   where a batch interpreter lives or dies.

   Renaming virtual registers onto a small physical file by occurrence
   intervals is semantics-preserving, control flow included:
   lanes advance through the code in pc order and each lane only
   touches its own column, so per column the memory order follows the
   pc.  A physical register freed at a virtual register's last textual
   occurrence is therefore never read as the old value again before
   its next definition (all later occurrences belong to the new
   virtual register).  Reads-before-write within one instruction are
   safe to share — every kernel reads its operand lanes before writing
   the destination lane. *)

let compact code nregs =
  let nops = Array.length code / 5 in
  let first = Array.make (max nregs 1) max_int in
  let last = Array.make (max nregs 1) (-1) in
  let touch r i =
    if i < first.(r) then first.(r) <- i;
    if i > last.(r) then last.(r) <- i
  in
  for i = 0 to nops - 1 do
    let op = code.(i * 5)
    and d = code.((i * 5) + 1)
    and a = code.((i * 5) + 2)
    and b = code.((i * 5) + 3)
    and c = code.((i * 5) + 4) in
    match op with
    | 0 | 1 | 15 (* ldc/ldv/vmul: only [d] is a register *) ->
        touch d i
    | 2 | 6 | 7 | 8 | 11 | 12 | 13 | 16 (* unary on [a] *) ->
        touch d i;
        touch a i
    | 3 | 4 | 5 | 9 | 14 (* binary on [a],[b] *) ->
        touch d i;
        touch a i;
        touch b i
    | 10 (* fma *) ->
        touch d i;
        touch a i;
        touch b i;
        touch c i
    | 17 (* jmp: no registers *) -> ()
    | 18 (* jnot: [d] is the relation id *) ->
        touch a i;
        touch b i
    | _ (* ste/sto: [c] is an env/out slot *) -> touch a i
  done;
  let starts = Array.make (nops + 2) [] in
  let ends = Array.make (nops + 2) [] in
  for r = 0 to nregs - 1 do
    if last.(r) >= 0 then begin
      let f = if first.(r) = max_int then last.(r) else first.(r) in
      starts.(f) <- r :: starts.(f);
      ends.(min last.(r) (nops + 1)) <- r :: ends.(min last.(r) (nops + 1))
    end
  done;
  let phys = Array.make (max nregs 1) (-1) in
  let free = ref [] in
  let next = ref 0 in
  for i = 0 to nops + 1 do
    (* Registers dying at op [i] free up before its definition: the
       kernels read all operands of a lane before writing it. *)
    List.iter
      (fun r -> if first.(r) < i then free := phys.(r) :: !free)
      ends.(i);
    List.iter
      (fun r ->
        match !free with
        | p :: tl ->
            free := tl;
            phys.(r) <- p
        | [] ->
            phys.(r) <- !next;
            incr next)
      starts.(i);
    (* A dead store (defined at [i], never read) frees immediately. *)
    List.iter
      (fun r -> if first.(r) = i then free := phys.(r) :: !free)
      ends.(i)
  done;
  let code' = Array.copy code in
  for i = 0 to nops - 1 do
    let op = code'.(i * 5) in
    let remap k = code'.((i * 5) + k) <- phys.(code'.((i * 5) + k)) in
    match op with
    | 0 | 1 | 15 -> remap 1
    | 2 | 6 | 7 | 8 | 11 | 12 | 13 | 16 ->
        remap 1;
        remap 2
    | 3 | 4 | 5 | 9 | 14 ->
        remap 1;
        remap 2;
        remap 3
    | 10 ->
        remap 1;
        remap 2;
        remap 3;
        remap 4
    | 17 -> ()
    | 18 ->
        remap 2;
        remap 3
    | _ -> remap 2
  done;
  (code', !next)

(* ---- load/consumer fusion ----

   Generated code is full of [ldv r, slot] feeding exactly one
   consumer: per lane that is a row write plus a row read for a value
   that already sits in an env column.  Batch-only opcodes (21..28,
   never produced by {!Vm.compile_stmts}) let the consumer read the env
   column in place, and the dead [ldv] is deleted outright:

     21 emulk   d <- env.(a) *. consts.(c)
     22 eaddk   d <- env.(a) +. consts.(c)
     23 eneg    d <- -. env.(a)
     24 esqr    d <- env.(a) * env.(a)
     25 erecip  d <- 1. /. env.(a)
     26 ecall1  d <- prim_c (env.(a))
     27 emula   d <- env.(a) *. regs.(b)
     28 emulb   d <- regs.(a) *. env.(b)

   Fusion is restricted to a load whose register the whole program
   reads exactly once ([reads] counts the virtual registers of the
   scalar code, [jnot], [ste] and [sto] included — after compaction a
   physical row serves many), to a def/use pair inside one jump-free
   segment (no jump instruction or jump target strictly between them) —
   the awake-lane set cannot change there, so the consumer reads env for
   exactly the lanes the [ldv] would have served — and to env slots not
   stored to ([ste]) in between.  [emula]/[emulb] keep the operand
   order of the original [mul] so NaN payload propagation stays
   bitwise.  Runs after register compaction (whose role table only
   knows scalar opcodes) and rewrites compaction's private copy of the
   code in place, never the scalar program's; jump targets are
   remapped over the deleted instructions. *)

(* Reads of each virtual register in the scalar code. *)
let read_counts code nregs =
  let reads = Array.make (max nregs 1) 0 in
  for i = 0 to (Array.length code / 5) - 1 do
    let _, ka, kb, kc = Vm_code.field_kinds code.(i * 5) in
    let count kind k =
      if kind = Vm_code.K_reg then
        let r = code.((i * 5) + k) in
        reads.(r) <- reads.(r) + 1
    in
    count ka 2;
    count kb 3;
    count kc 4
  done;
  reads

(* [read_once i]: the load at instruction [i] has one reader in the
   whole program. *)
let fuse ~read_once code =
  let nops = Array.length code / 5 in
  let boundary = Array.make (nops + 1) false in
  for i = 0 to nops - 1 do
    let op = code.(i * 5) in
    if op = 17 || op = 18 then begin
      boundary.(i) <- true;
      let t = code.((i * 5) + 4) / 5 in
      boundary.(min t nops) <- true
    end
  done;
  let dead = Array.make (max nops 1) false in
  let changed = ref false in
  for i = 0 to nops - 1 do
    if code.(i * 5) = 1 (* ldv *) && read_once i then begin
      let r = code.((i * 5) + 1) and e = code.((i * 5) + 2) in
      let j = ref (i + 1) in
      let halt = ref false and blocked = ref false in
      let use = ref (-1) and nuses = ref 0 in
      while (not !halt) && !j < nops do
        if boundary.(!j) then halt := true
        else begin
          let op = code.(!j * 5)
          and d = code.((!j * 5) + 1)
          and a = code.((!j * 5) + 2)
          and b = code.((!j * 5) + 3)
          and c = code.((!j * 5) + 4) in
          let reads =
            match op with
            | 2 | 6 | 7 | 8 | 11 | 12 | 13 -> if a = r then 1 else 0
            | 3 | 4 | 5 | 9 | 14 ->
                (if a = r then 1 else 0) + if b = r then 1 else 0
            | 10 ->
                (if a = r then 1 else 0)
                + (if b = r then 1 else 0)
                + if c = r then 1 else 0
            | 16 | 19 | 20 -> if a = r then 1 else 0
            | 27 -> if b = r then 1 else 0
            | 28 -> if a = r then 1 else 0
            | _ -> 0
          in
          if reads > 0 then begin
            nuses := !nuses + reads;
            use := !j
          end;
          if op = 19 && c = e then blocked := true;
          let defines =
            match op with
            | 17 | 18 | 19 | 20 -> false
            | _ -> d = r
          in
          if defines then halt := true else incr j
        end
      done;
      if !nuses = 1 && not !blocked then begin
        let u = !use in
        let op = code.(u * 5) and a = code.((u * 5) + 2) in
        let b = code.((u * 5) + 3) in
        let rewrite op' k =
          code.(u * 5) <- op';
          code.((u * 5) + k) <- e;
          dead.(i) <- true;
          changed := true
        in
        match op with
        | 12 -> rewrite 21 2
        | 11 -> rewrite 22 2
        | 6 -> rewrite 23 2
        | 7 -> rewrite 24 2
        | 8 -> rewrite 25 2
        | 13 -> rewrite 26 2
        | 5 when a = r -> rewrite 27 2
        | 5 when b = r -> rewrite 28 3
        | _ -> ()
      end
    end
  done;
  if not !changed then code
  else begin
    let newpos = Array.make (nops + 1) 0 in
    let k = ref 0 in
    for i = 0 to nops - 1 do
      newpos.(i) <- !k;
      if not dead.(i) then incr k
    done;
    newpos.(nops) <- !k;
    let code' = Array.make (!k * 5) 0 in
    for i = 0 to nops - 1 do
      if not dead.(i) then begin
        let p = newpos.(i) * 5 in
        Array.blit code (i * 5) code' p 5;
        let op = code'.(p) in
        if op = 17 || op = 18 then
          code'.(p + 4) <- newpos.(min (code'.(p + 4) / 5) nops) * 5
      end
    done;
    code'
  end

(* The env and out slots the conditioned code reads or writes.  [exec]
   checks the length of exactly these columns on every call: the
   kernels index them unchecked, and checking the whole (often shared,
   much wider) env layout instead would cost more than a narrow batch's
   arithmetic. *)
let columns code ~env_size ~out_size =
  let env = Array.make env_size false and out = Array.make out_size false in
  for i = 0 to (Array.length code / 5) - 1 do
    let f k = code.((i * 5) + k) in
    match f 0 with
    | 1 | 21 | 22 | 23 | 24 | 25 | 26 | 27 (* env operand [a] *) ->
        env.(f 2) <- true
    | 28 (* emulb *) -> env.(f 3) <- true
    | 15 (* vmul *) ->
        env.(f 2) <- true;
        env.(f 3) <- true
    | 16 (* vmacc *) ->
        env.(f 3) <- true;
        env.(f 4) <- true
    | 19 (* ste *) -> env.(f 4) <- true
    | 20 (* sto *) -> out.(f 4) <- true
    | _ -> ()
  done;
  let slots used =
    let buf = Array.make (Array.length used) 0 and n = ref 0 in
    Array.iteri
      (fun s u ->
        if u then begin
          buf.(!n) <- s;
          incr n
        end)
      used;
    Array.sub buf 0 !n
  in
  (slots env, slots out)

let create (p : Vm.program) ~width =
  if width < 1 then invalid_arg "Vm_batch.create: width < 1";
  let r = Vm.raw p in
  let code, nregs = compact r.rw_code r.rw_nregs in
  let reads = read_counts r.rw_code r.rw_nregs in
  let code =
    fuse code ~read_once:(fun i -> reads.(r.rw_code.((i * 5) + 1)) = 1)
  in
  let env_cols, out_cols =
    columns code ~env_size:r.rw_env_size ~out_size:r.rw_out_size
  in
  let njump =
    let nops = Array.length code / 5 in
    let nj = Array.make (max nops 1) (Array.length code) in
    let nearest = ref (Array.length code) in
    for i = nops - 1 downto 0 do
      let op = code.(i * 5) in
      if op = 17 || op = 18 then nearest := i * 5;
      nj.(i) <- !nearest
    done;
    nj
  in
  {
    code;
    consts = r.rw_consts;
    width;
    nregs = max nregs 1;
    env_size = r.rw_env_size;
    out_size = r.rw_out_size;
    env_cols;
    out_cols;
    regs = Array.init (max nregs 1) (fun _ -> Array.make width 0.);
    sleep = Array.make width 0;
    ident = Array.init width Fun.id;
    lanes = Array.make width 0;
    njump;
  }

(* Float.min/Float.max semantics, inlined like the scalar VM (the
   stdlib functions are not [@@noalloc] and would box at the call). *)
let[@inline] fmin x y =
  if x <> x then x
  else if y <> y then y
  else if x < y then x
  else if y < x then y
  else if x = 0. && 1. /. x < 0. then x
  else y

let[@inline] fmax x y =
  if x <> x then x
  else if y <> y then y
  else if x < y then y
  else if y < x then x
  else if x = 0. && 1. /. x < 0. then y
  else x

(* ---- the instruction kernel ----

   [sloop] runs the jump-free code [pc, stop) unmasked over the lanes
   [idx.(lo)], ..., [idx.(hi)]; [drive] below feeds it segments and
   their awake-lane lists.  Every kernel loop reads lane
   [j = idx.(q)]: one kernel serves both the identity list and a
   compacted one, so there is no second, contiguous copy.  Toplevel
   recursive functions over immediate parameters, like the scalar
   [Vm.loop]: a local recursive function would capture the arrays in a
   closure and allocate on every call. *)

let rec sloop code consts regs env out idx stop pc lo hi =
  if pc < stop then begin
    let op = Array.unsafe_get code pc in
    let d = Array.unsafe_get code (pc + 1) in
    let a = Array.unsafe_get code (pc + 2) in
    let b = Array.unsafe_get code (pc + 3) in
    let c = Array.unsafe_get code (pc + 4) in
    (match op with
    | 0 (* ldc *) ->
        let dst = Array.unsafe_get regs d in
        let k = Array.unsafe_get consts c in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j k
        done
    | 1 (* ldv *) ->
        let dst = Array.unsafe_get regs d in
        let src = Array.unsafe_get env a in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 2 (* mov *) ->
        let dst = Array.unsafe_get regs d in
        let src = Array.unsafe_get regs a in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 3 (* add *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j
            (Array.unsafe_get xa j +. Array.unsafe_get xb j)
        done
    | 4 (* sub *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j
            (Array.unsafe_get xa j -. Array.unsafe_get xb j)
        done
    | 5 (* mul *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j
            (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done
    | 6 (* neg *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (-.Array.unsafe_get xa j)
        done
    | 7 (* sqr *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          let x = Array.unsafe_get xa j in
          Array.unsafe_set dst j (x *. x)
        done
    | 8 (* recip *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (1. /. Array.unsafe_get xa j)
        done
    | 9 (* pow *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j
            (Expr.eval_pow (Array.unsafe_get xa j) (Array.unsafe_get xb j))
        done
    | 10 (* fma *) ->
        (* Two rounded operations, matching Eval.eval — not a hardware
           fused multiply-add. *)
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        let xc = Array.unsafe_get regs c in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j
            ((Array.unsafe_get xa j *. Array.unsafe_get xb j)
            +. Array.unsafe_get xc j)
        done
    | 11 (* addk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let k = Array.unsafe_get consts c in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (Array.unsafe_get xa j +. k)
        done
    | 12 (* mulk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let k = Array.unsafe_get consts c in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (Array.unsafe_get xa j *. k)
        done
    | 13 (* call1 *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        (match c with
        | 0 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.sin (Array.unsafe_get xa j))
            done
        | 1 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.cos (Array.unsafe_get xa j))
            done
        | 2 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.tan (Array.unsafe_get xa j))
            done
        | 3 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.asin (Array.unsafe_get xa j))
            done
        | 4 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.acos (Array.unsafe_get xa j))
            done
        | 5 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.atan (Array.unsafe_get xa j))
            done
        | 6 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.sinh (Array.unsafe_get xa j))
            done
        | 7 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.cosh (Array.unsafe_get xa j))
            done
        | 8 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.tanh (Array.unsafe_get xa j))
            done
        | 9 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.exp (Array.unsafe_get xa j))
            done
        | 10 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.log (Array.unsafe_get xa j))
            done
        | 11 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.sqrt (Array.unsafe_get xa j))
            done
        | 12 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.abs (Array.unsafe_get xa j))
            done
        | _ (* 13: sign *) ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              let x = Array.unsafe_get xa j in
              Array.unsafe_set dst j
                (if x > 0. then 1. else if x < 0. then -1. else 0.)
            done)
    | 14 (* call2 *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get regs b in
        (match c with
        | 0 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j
                (Float.atan2 (Array.unsafe_get xa j) (Array.unsafe_get xb j))
            done
        | 1 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j
                (fmin (Array.unsafe_get xa j) (Array.unsafe_get xb j))
            done
        | 2 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j
                (fmax (Array.unsafe_get xa j) (Array.unsafe_get xb j))
            done
        | _ (* 3: hypot *) ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j
                (Float.hypot (Array.unsafe_get xa j) (Array.unsafe_get xb j))
            done)
    | 15 (* vmul *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let xb = Array.unsafe_get env b in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j
            (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done
    | 16 (* vmacc *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get env b in
        let xc = Array.unsafe_get env c in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j
            (Array.unsafe_get xa j
            +. (Array.unsafe_get xb j *. Array.unsafe_get xc j))
        done
    | 19 (* ste *) ->
        let dst = Array.unsafe_get env c in
        let src = Array.unsafe_get regs a in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 20 (* sto *) ->
        let dst = Array.unsafe_get out c in
        let src = Array.unsafe_get regs a in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (Array.unsafe_get src j)
        done
    | 21 (* emulk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let k = Array.unsafe_get consts c in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (Array.unsafe_get xa j *. k)
        done
    | 22 (* eaddk *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let k = Array.unsafe_get consts c in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (Array.unsafe_get xa j +. k)
        done
    | 23 (* eneg *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (-.Array.unsafe_get xa j)
        done
    | 24 (* esqr *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          let x = Array.unsafe_get xa j in
          Array.unsafe_set dst j (x *. x)
        done
    | 25 (* erecip *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j (1. /. Array.unsafe_get xa j)
        done
    | 26 (* ecall1 *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        (match c with
        | 0 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.sin (Array.unsafe_get xa j))
            done
        | 1 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.cos (Array.unsafe_get xa j))
            done
        | 2 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.tan (Array.unsafe_get xa j))
            done
        | 3 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.asin (Array.unsafe_get xa j))
            done
        | 4 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.acos (Array.unsafe_get xa j))
            done
        | 5 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.atan (Array.unsafe_get xa j))
            done
        | 6 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.sinh (Array.unsafe_get xa j))
            done
        | 7 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.cosh (Array.unsafe_get xa j))
            done
        | 8 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.tanh (Array.unsafe_get xa j))
            done
        | 9 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.exp (Array.unsafe_get xa j))
            done
        | 10 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.log (Array.unsafe_get xa j))
            done
        | 11 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.sqrt (Array.unsafe_get xa j))
            done
        | 12 ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              Array.unsafe_set dst j (Float.abs (Array.unsafe_get xa j))
            done
        | _ (* 13: sign *) ->
            for q = lo to hi do
              let j = Array.unsafe_get idx q in
              let x = Array.unsafe_get xa j in
              Array.unsafe_set dst j
                (if x > 0. then 1. else if x < 0. then -1. else 0.)
            done)
    | 27 (* emula *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get env a in
        let xb = Array.unsafe_get regs b in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j
            (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done
    | _ (* 28: emulb *) ->
        let dst = Array.unsafe_get regs d in
        let xa = Array.unsafe_get regs a in
        let xb = Array.unsafe_get env b in
        for q = lo to hi do
          let j = Array.unsafe_get idx q in
          Array.unsafe_set dst j
            (Array.unsafe_get xa j *. Array.unsafe_get xb j)
        done);
    sloop code consts regs env out idx stop (pc + 5) lo hi
  end

(* ---- control flow (see the file header) ----

   One walk over the code.  [nasleep] counts lanes with
   [sleep.(j) > pc]; [next_wake] is the smallest wake-up pc among them
   ([max_int] when none sleep), so sleeper counts are only recomputed
   at pcs where a lane can actually wake.  When a jump leaves no lane
   awake the walk hops straight to the earliest wake-up: a [jmp] always
   does, and a [jnot] no awake lane passes skips its then-arm exactly
   like the scalar interpreter.

   Each jump-free segment is one [sloop] call.  With no lane asleep it
   runs over [ident], the identity list, at positions [lo..hi];
   otherwise the lanes of [lo..hi] awake at [pc] are first written, in
   lane order, to positions [lo, lo + 1, ...] of [lanes] and the call
   runs over those.  Exact because the awake set cannot change inside
   the segment and every kernel reads and writes only its own lane.  A
   call over [lo..hi] writes [lanes] only at positions [lo..hi], so
   disjoint lane ranges may run concurrently on one instance. *)
let rec drive code consts njump regs env out ident lanes sleep stop pc lo hi
    nasleep next_wake =
  if pc < stop then
    if pc >= next_wake then begin
      (* a wake-up pc: recount the sleepers *)
      let n = ref 0 and nw = ref max_int in
      for j = lo to hi do
        let s = Array.unsafe_get sleep j in
        if s > pc then begin
          incr n;
          if s < !nw then nw := s
        end
      done;
      drive code consts njump regs env out ident lanes sleep stop pc lo hi !n
        !nw
    end
    else begin
      let j = Array.unsafe_get njump (pc / 5) in
      if j > pc then begin
        (* jump-free segment up to the next jump or wake-up *)
        let seg = if next_wake < j then next_wake else j in
        (if nasleep = 0 then sloop code consts regs env out ident seg pc lo hi
         else begin
           let n = ref lo in
           for j = lo to hi do
             if Array.unsafe_get sleep j <= pc then begin
               Array.unsafe_set lanes !n j;
               incr n
             end
           done;
           sloop code consts regs env out lanes seg pc lo (!n - 1)
         end);
        drive code consts njump regs env out ident lanes sleep stop seg lo hi
          nasleep next_wake
      end
      else begin
        let c = Array.unsafe_get code (pc + 4) in
        let k = ref 0 in
        (if Array.unsafe_get code pc = 17 then
           (* jmp: the awake lanes sleep until the join *)
           for j = lo to hi do
             if Array.unsafe_get sleep j <= pc then begin
               incr k;
               Array.unsafe_set sleep j c
             end
           done
         else begin
           (* jnot: the awake lanes failing the condition sleep until
              the target *)
           let d = Array.unsafe_get code (pc + 1) in
           let xa = Array.unsafe_get regs (Array.unsafe_get code (pc + 2)) in
           let xb = Array.unsafe_get regs (Array.unsafe_get code (pc + 3)) in
           for j = lo to hi do
             if Array.unsafe_get sleep j <= pc then begin
               let x = Array.unsafe_get xa j in
               let y = Array.unsafe_get xb j in
               let holds =
                 match d with
                 | 0 -> x < y
                 | 1 -> x <= y
                 | 2 -> x > y
                 | _ -> x >= y
               in
               if not holds then begin
                 incr k;
                 Array.unsafe_set sleep j c
               end
             end
           done
         end);
        let nl = nasleep + !k in
        let nw = if !k > 0 && c < next_wake then c else next_wake in
        if nl = hi - lo + 1 then
          (* no lane awake: hop to the earliest wake-up *)
          drive code consts njump regs env out ident lanes sleep stop nw lo hi
            nl nw
        else
          drive code consts njump regs env out ident lanes sleep stop (pc + 5)
            lo hi nl nw
      end
    end

let exec t ~env ~out ~lo ~hi =
  if lo < 0 || hi > t.width || lo >= hi then
    invalid_arg "Vm_batch.exec: bad lane range";
  if Array.length env < t.env_size then
    invalid_arg "Vm_batch.exec: env too small";
  if Array.length out < t.out_size then
    invalid_arg "Vm_batch.exec: out too small";
  for i = 0 to Array.length t.env_cols - 1 do
    if Array.length env.(Array.unsafe_get t.env_cols i) < hi then
      invalid_arg "Vm_batch.exec: env column too short"
  done;
  for i = 0 to Array.length t.out_cols - 1 do
    if Array.length out.(Array.unsafe_get t.out_cols i) < hi then
      invalid_arg "Vm_batch.exec: out column too short"
  done;
  Array.fill t.sleep lo (hi - lo) 0;
  drive t.code t.consts t.njump t.regs env out t.ident t.lanes t.sleep
    (Array.length t.code) 0 lo (hi - 1) 0 max_int
