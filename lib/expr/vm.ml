(* Register-based, allocation-free expression VM.

   Lowering emits write-once virtual registers: every sub-expression
   gets a fresh register, and only the join register of an [If] is
   written twice (once per branch, by a [Mov]).  Jumps are forward-only.
   Both invariants are what {!Peephole} relies on.

   Lowering walks the expression DAG, not the tree: a compound node
   reached again through another parent (physical identity, [==])
   reuses the register it was first lowered to.  Reuse needs the first
   definition to dominate every later read, so nodes first lowered
   inside an [If] arm are forgotten when the arm ends, and the whole
   memo is dropped at every [To_env] store, which a reused register
   must not span.  Leaves are not memoised: a reload costs one
   instruction and keeps the probe chains of equal leaves short.

   The interpreter is a tail-recursive loop over immediate-int state
   with direct primitive dispatch; every float lives in a float array or
   an unboxed temporary, so steady-state execution performs zero minor-
   heap allocation.  [Array.unsafe_get]/[unsafe_set] are justified by
   [validate] below, which checks every operand of every instruction
   once at compile time. *)

type program = {
  code : int array;
  consts : float array;
  nregs : int;
  env_size : int;
  out_size : int;
  regs : float array; (* scratch register file, length nregs *)
}

type target = To_env of int | To_out of int
type stats = { instrs : int; flops : float; fused : int }

(* The interpreter matches on literal opcodes to get a flat switch;
   keep them in sync with Vm_code's numbering. *)
let () =
  assert (Vm_code.stride = 5);
  assert (
    Vm_code.op_ldc = 0 && Vm_code.op_ldv = 1 && Vm_code.op_mov = 2
    && Vm_code.op_add = 3 && Vm_code.op_sub = 4 && Vm_code.op_mul = 5
    && Vm_code.op_neg = 6 && Vm_code.op_sqr = 7 && Vm_code.op_recip = 8
    && Vm_code.op_pow = 9 && Vm_code.op_fma = 10 && Vm_code.op_addk = 11
    && Vm_code.op_mulk = 12 && Vm_code.op_call1 = 13 && Vm_code.op_call2 = 14
    && Vm_code.op_vmul = 15 && Vm_code.op_vmacc = 16 && Vm_code.op_jmp = 17
    && Vm_code.op_jnot = 18 && Vm_code.op_ste = 19 && Vm_code.op_sto = 20)

(* ---- lowering memo ---- *)

(* Physical-identity map from lowered compound nodes to their registers,
   specialised for lowering: open addressing with linear probing over
   parallel arrays, indexed by the hash each node stores ([Expr.hash]
   reads it, so a lookup walks no subterm), and an entry allocates
   nothing.

   Entries are forgotten in bulk, by scope.  Each records the scope it
   was made in: the statement segment since the last [To_env] store, or
   an If arm nested in it.  Scopes are numbered in the order they open,
   those of the current segment from [base] on (the segment's own scope
   is [base]); [is_open] says, for each of these, whether it is still
   open.  A slot whose scope is below [base] is empty; one whose scope
   has closed is a tombstone, which lookups probe past and insertions
   reuse.

   An If at statement scope runs whenever the segment does, so a later
   one whose condition has the same values takes the same arm and may
   read the registers that arm defined.  The arms of such an If log
   their own scope's entries ([sink_scope]), keyed, with the condition,
   by those values ([arms]).  At the condition's second occurrence each
   arm builds an arm table from its log, adds its own entries to it,
   and looks up there what the table does not find; so do later
   occurrences.  The logs and arm tables hold exactly what the arms
   added, whatever tombstones overwrote in the table since, so the
   program does not depend on the table's layout; and the table keeps
   no closed arm's entries, so its probe chains do not grow with them.
   Where no later arm shares a node physically with an earlier one, as
   in a program lowered from rows that are not interned, the lookups
   miss and the program is the one lowered without sharing.

   Only the Ifs of a condition that can recur log their arms: before
   lowering, [recurring] counts the statement-level conditions of the
   block by relation and operand hashes.  Equal operand values (one
   register, one constant's bits, one env slot) mean equal operand
   nodes, and so equal hashes: a condition counted once has no later
   If to share its arms with. *)
type memo = {
  mutable keys : Expr.t array; (* length a power of two *)
  mutable hashes : int array;
  mutable vals : int array; (* registers *)
  mutable scopes : int array;
  mutable used : int; (* slots holding an entry or a tombstone *)
  mutable base : int;
  mutable scope : int; (* innermost open scope *)
  mutable next_scope : int;
  mutable is_open : Bytes.t; (* indexed by scope - base *)
  arms : (cond_key, arm) Hashtbl.t;
      (* the statement-level conditions of the segment *)
  mutable recurs : (Expr.rel * int * int, bool) Hashtbl.t;
      (* the conditions of the block that may recur *)
  mutable sink_scope : int; (* the scope whose entries are recorded *)
  mutable sink : arm_table; (* where, or [no_table] for [log] *)
  mutable source : arm_table;
      (* what earlier arms of the same condition added *)
  mutable log : logged list; (* the recorded arm's entries, latest first *)
}

(* The value of a condition operand: its register, its constant bits or
   its env slot.  Equal keys in one segment give equal values, so the
   same arm runs. *)
and operand = Reg of int | Bits of int64 | Slot of int
and cond_key = Expr.rel * operand * operand

(* A condition seen once, with the logs of its then and else arms, or
   the arm tables of a recurring one. *)
and arm = Seen of logged list * logged list | Tables of arm_table * arm_table

(* A node and its register. *)
and logged = { l_node : Expr.t; l_reg : int }

(* Node to register, by physical identity. *)
and arm_table = int Expr.Phys_tbl.t

(* The table of no arm: never added to, so a lookup in it is one
   compare. *)
let no_table : arm_table = Expr.Phys_tbl.create 0

(* Most programs lower many small statement blocks, so the table starts
   small and grows fast. *)
let memo_create () =
  {
    keys = Array.make 16 Expr.zero;
    hashes = Array.make 16 0;
    vals = Array.make 16 0;
    scopes = Array.make 16 0;
    used = 0;
    base = 1;
    scope = 1;
    next_scope = 2;
    is_open = Bytes.make 16 '\001';
    arms = Hashtbl.create 16;
    recurs = Hashtbl.create 1;
    sink_scope = -1;
    sink = no_table;
    source = no_table;
    log = [];
  }

let is_live m s = s >= m.base && Bytes.get m.is_open (s - m.base) = '\001'

let open_scope m =
  let s = m.next_scope in
  m.next_scope <- s + 1;
  let k = s - m.base in
  if k >= Bytes.length m.is_open then
    m.is_open <- Bytes.extend m.is_open 0 (Bytes.length m.is_open);
  Bytes.set m.is_open k '\001';
  m.scope <- s

let close_scope m s = Bytes.set m.is_open (s - m.base) '\000'

(* Forget everything: a fresh segment scope. *)
let new_segment m =
  if Hashtbl.length m.arms > 0 then Hashtbl.reset m.arms;
  if m.used > 0 then begin
    m.base <- m.next_scope;
    m.used <- 0;
    open_scope m
  end

(* The register of node [e] with hash [h], or -1.  The probe loops are
   toplevel functions so that a lookup allocates no closure. *)
let rec probe m e mask i =
  let s = Array.unsafe_get m.scopes i in
  if s < m.base then -1
  else if Array.unsafe_get m.keys i == e && is_live m s then
    Array.unsafe_get m.vals i
  else probe m e mask ((i + 1) land mask)

let memo_find m h e =
  let mask = Array.length m.keys - 1 in
  probe m e mask (h land mask)

(* The first empty slot or tombstone from [i] on. *)
let rec free_slot m mask i =
  let s = Array.unsafe_get m.scopes i in
  if s < m.base || not (is_live m s) then i
  else free_slot m mask ((i + 1) land mask)

let rec memo_put m h e r =
  let mask = Array.length m.keys - 1 in
  let i = free_slot m mask (h land mask) in
  if m.scopes.(i) < m.base then m.used <- m.used + 1;
  m.keys.(i) <- e;
  m.hashes.(i) <- h;
  m.vals.(i) <- r;
  m.scopes.(i) <- m.scope;
  if 2 * m.used > Array.length m.keys then memo_rehash m

(* Drop tombstones, growing the table fourfold if live entries fill a
   quarter of it. *)
and memo_rehash m =
  let keys = m.keys and hashes = m.hashes and vals = m.vals in
  let scopes = m.scopes in
  let live = ref 0 in
  Array.iter (fun s -> if is_live m s then incr live) scopes;
  let n = Array.length keys in
  let n = if 4 * !live > n then 4 * n else n in
  m.keys <- Array.make n Expr.zero;
  m.hashes <- Array.make n 0;
  m.vals <- Array.make n 0;
  m.scopes <- Array.make n 0;
  m.used <- 0;
  let scope = m.scope in
  Array.iteri
    (fun i s ->
      if is_live m s then begin
        m.scope <- s;
        memo_put m hashes.(i) keys.(i) vals.(i)
      end)
    scopes;
  m.scope <- scope

(* Add [e]'s register [r].  An entry of the recorded arm's scope also
   goes to its log or arm table. *)
let memo_add m h e r =
  if m.scope = m.sink_scope then
    if m.sink == no_table then m.log <- { l_node = e; l_reg = r } :: m.log
    else Expr.Phys_tbl.add m.sink e r;
  memo_put m h e r

(* The arm table of a log, with room for as many entries again. *)
let arm_of_log log =
  let t = Expr.Phys_tbl.create (2 * List.length log) in
  List.iter (fun l -> Expr.Phys_tbl.add t l.l_node l.l_reg) log;
  t

(* ---- emission ---- *)

type emitter = {
  mutable buf : int array; (* words *)
  mutable len : int; (* in words *)
  mutable next_reg : int;
  mutable consts : float array;
  mutable nconsts : int;
  const_tbl : (int64, int) Hashtbl.t;
  memo : memo;
}

let new_emitter () =
  {
    buf = Array.make 160 0;
    len = 0;
    next_reg = 0;
    consts = Array.make 16 0.;
    nconsts = 0;
    const_tbl = Hashtbl.create 16;
    memo = memo_create ();
  }

(* The buffer grows fourfold: a Jacobian program is some 10^5 words,
   and each regrowth copies the code so far into a fresh major-heap
   array. *)
let emit em op dst a b c =
  if em.len + Vm_code.stride > Array.length em.buf then begin
    let bigger = Array.make (4 * Array.length em.buf) 0 in
    Array.blit em.buf 0 bigger 0 em.len;
    em.buf <- bigger
  end;
  let p = em.len in
  em.buf.(p) <- op;
  em.buf.(p + 1) <- dst;
  em.buf.(p + 2) <- a;
  em.buf.(p + 3) <- b;
  em.buf.(p + 4) <- c;
  em.len <- p + Vm_code.stride

let fresh em =
  let r = em.next_reg in
  em.next_reg <- r + 1;
  r

(* Constant-pool index, deduplicated by bit pattern so -0.0 and 0.0
   stay distinct. *)
let kpool em x =
  let key = Int64.bits_of_float x in
  match Hashtbl.find_opt em.const_tbl key with
  | Some i -> i
  | None ->
      if em.nconsts >= Array.length em.consts then begin
        let bigger = Array.make (2 * Array.length em.consts) 0. in
        Array.blit em.consts 0 bigger 0 em.nconsts;
        em.consts <- bigger
      end;
      let i = em.nconsts in
      em.consts.(i) <- x;
      em.nconsts <- i + 1;
      Hashtbl.add em.const_tbl key i;
      i

(* Lower an expression; returns the register holding its value.
   Evaluation order matches Eval.eval: operands left to right, an If's
   condition before its taken branch only. *)
let rec lower em index (e : Expr.t) =
  match e with
  | Const _ | Var _ -> lower_node em index e
  | _ ->
      let m = em.memo in
      let h = Expr.hash e in
      let r = memo_find m h e in
      if r >= 0 then r
      else
        let r = Expr.Phys_tbl.find_or m.source e (-1) in
        if r >= 0 then r
        else begin
          let r = lower_node em index e in
          memo_add m h e r;
          r
        end

(* Lower one branch of an If in a scope of its own: what it adds to the
   memo is unset when the other branch runs, or after the join.  At
   statement scope ([record]) the arm records what it adds in its arm
   table [t], or in the log if [t] is [no_table], and looks up in [t]
   what earlier arms of the same condition added.  Returns the branch's
   register and its log. *)
and lower_arm em index e t ~record =
  let m = em.memo in
  let outer = m.scope in
  open_scope m;
  let arm = m.scope in
  if record then begin
    m.sink_scope <- arm;
    m.sink <- t;
    m.source <- t
  end;
  let r = lower em index e in
  let log = m.log in
  if record then begin
    m.sink_scope <- -1;
    m.sink <- no_table;
    m.source <- no_table;
    m.log <- []
  end;
  close_scope m arm;
  m.scope <- outer;
  (r, log)

and lower_node em index (e : Expr.t) =
  match e with
  | Const x ->
      let r = fresh em in
      emit em Vm_code.op_ldc r 0 0 (kpool em x);
      r
  | Var v ->
      let r = fresh em in
      emit em Vm_code.op_ldv r (index v) 0 0;
      r
  | Add ([], _) -> lower em index Expr.zero
  | Mul ([], _) -> lower em index Expr.one
  (* A literal constant operand goes straight into its constant-operand
     form: the rewrite {!Peephole}'s folding would make of the [ldc] and
     the [add]/[mul]/[pow], and the same bits ([c * x = x * c]).  A
     product led by [1.] is left to folding, which makes it a copy. *)
  | Add (Const c :: y :: ys, _) ->
      let ry = lower em index y in
      let r = fresh em in
      emit em Vm_code.op_addk r ry 0 (kpool em c);
      chain em index Vm_code.op_add r ys
  | Mul (Const c :: y :: ys, _) when c <> 1. ->
      let ry = lower em index y in
      let r = fresh em in
      if c = -1. then emit em Vm_code.op_neg r ry 0 0
      else emit em Vm_code.op_mulk r ry 0 (kpool em c);
      chain em index Vm_code.op_mul r ys
  | Add (x :: xs, _) -> chain em index Vm_code.op_add (lower em index x) xs
  | Mul (x :: xs, _) -> chain em index Vm_code.op_mul (lower em index x) xs
  | Pow (b, Const 2., _) -> unary em Vm_code.op_sqr (lower em index b)
  | Pow (b, Const c, _) when c = -1. ->
      unary em Vm_code.op_recip (lower em index b)
  | Pow (b, ex, _) ->
      let ra = lower em index b in
      let rb = lower em index ex in
      let r = fresh em in
      emit em Vm_code.op_pow r ra rb 0;
      r
  | Call (f, [ x ], _) ->
      let rx = lower em index x in
      let r = fresh em in
      emit em Vm_code.op_call1 r rx 0 (Vm_code.prim1_of_func f);
      r
  | Call (f, [ x; y ], _) ->
      let rx = lower em index x in
      let ry = lower em index y in
      let r = fresh em in
      emit em Vm_code.op_call2 r rx ry (Vm_code.prim2_of_func f);
      r
  | Call (f, args, _) ->
      invalid_arg
        (Printf.sprintf "Vm.compile_stmts: %s applied to %d arguments"
           (Expr.func_name f) (List.length args))
  | If (c, t, e', _) ->
      let m = em.memo in
      let statement =
        m.scope = m.base
        && Hashtbl.mem m.recurs (c.rel, Expr.hash c.lhs, Expr.hash c.rhs)
      in
      let rl = lower em index c.lhs in
      let rr = lower em index c.rhs in
      (* The arms' tables: none at a condition's first occurrence,
         which logs, built from its logs at its second, the same ones
         from its third on. *)
      let first, tt, te =
        if not statement then (None, no_table, no_table)
        else
          let key = (c.rel, operand index c.lhs rl, operand index c.rhs rr) in
          match Hashtbl.find_opt m.arms key with
          | None -> (Some key, no_table, no_table)
          | Some (Seen (lt, le)) ->
              let tt = arm_of_log lt and te = arm_of_log le in
              Hashtbl.replace m.arms key (Tables (tt, te));
              (None, tt, te)
          | Some (Tables (tt, te)) -> (None, tt, te)
      in
      let join = fresh em in
      let jnot_at = em.len in
      emit em Vm_code.op_jnot (Vm_code.rel_id c.rel) rl rr (-1);
      let rt, lt = lower_arm em index t tt ~record:statement in
      emit em Vm_code.op_mov join rt 0 0;
      let jmp_at = em.len in
      emit em Vm_code.op_jmp 0 0 0 (-1);
      em.buf.(jnot_at + 4) <- em.len;
      let re, le = lower_arm em index e' te ~record:statement in
      emit em Vm_code.op_mov join re 0 0;
      em.buf.(jmp_at + 4) <- em.len;
      Option.iter (fun key -> Hashtbl.add m.arms key (Seen (lt, le))) first;
      join

and operand index (e : Expr.t) r =
  match e with
  | Const x -> Bits (Int64.bits_of_float x)
  | Var v -> Slot (index v)
  | _ -> Reg r

(* [acc op y1 op y2 ...], folded left to right like Eval.eval. *)
and chain em index op acc = function
  | [] -> acc
  | y :: ys ->
      let ry = lower em index y in
      let r = fresh em in
      emit em op r acc ry 0;
      chain em index op r ys

and unary em op ra =
  let r = fresh em in
  emit em op r ra 0 0;
  r

(* ---- validation: every operand checked once, so the interpreter may
   use unsafe array access ---- *)

let validate ~env_size ~out_size (q : Peephole.t) =
  let fail fmt = Printf.ksprintf invalid_arg ("Vm: invalid program: " ^^ fmt) in
  let code = q.code in
  let n = Array.length code in
  if n mod Vm_code.stride <> 0 then fail "code length %d not a multiple of stride" n;
  (* The operand [v], of kind [kind], of the instruction at [p]. *)
  let check p kind v =
    match kind with
    | Vm_code.K_none -> ()
    | Vm_code.K_reg ->
        if v < 0 || v >= q.nregs then fail "register %d at %d" v p
    | Vm_code.K_env ->
        if v < 0 || v >= env_size then fail "env slot %d at %d" v p
    | Vm_code.K_out ->
        if v < 0 || v >= out_size then fail "out slot %d at %d" v p
    | Vm_code.K_const ->
        if v < 0 || v >= Array.length q.consts then fail "const %d at %d" v p
    | Vm_code.K_prim1 ->
        if v < 0 || v >= Vm_code.prim1_count then fail "prim1 %d at %d" v p
    | Vm_code.K_prim2 ->
        if v < 0 || v >= Vm_code.prim2_count then fail "prim2 %d at %d" v p
    | Vm_code.K_target ->
        (* Forward-only, aligned, may point one past the end. *)
        if v <= p || v > n || v mod Vm_code.stride <> 0 then
          fail "jump target %d at %d" v p
    | Vm_code.K_rel -> if v < 0 || v > 3 then fail "relation %d at %d" v p
  in
  let pos = ref 0 in
  while !pos < n do
    let p = !pos in
    let o = code.(p) in
    if o < 0 || o >= Vm_code.n_opcodes then fail "opcode %d at %d" o p;
    let kd, ka, kb, kc = Vm_code.field_kinds o in
    check p kd code.(p + 1);
    check p ka code.(p + 2);
    check p kb code.(p + 3);
    check p kc code.(p + 4);
    pos := p + Vm_code.stride
  done

(* A validated program over [q], with its own register file. *)
let of_code ~env_size ~out_size (q : Peephole.t) =
  validate ~env_size ~out_size q;
  {
    code = q.code;
    consts = q.consts;
    nregs = q.nregs;
    env_size;
    out_size;
    regs = Array.make q.nregs 0.;
  }

(* The emitter and the peephole pass's working arrays, lent to every
   program of one compile so each program does not allocate its own
   instruction-sized buffers. *)
type scratch = { em : emitter; pp : Peephole.scratch }

let scratch () = { em = new_emitter (); pp = Peephole.scratch () }

(* The conditions of statement-level Ifs of [roots] (reached without
   entering an If's arms) met at least twice, each compound node
   counted once.  The walk enters only subterms that hold an If. *)
let recurring roots =
  let seen = Expr.Phys_tbl.create 64 and counts = Hashtbl.create 16 in
  let rec walk (e : Expr.t) =
    match e with
    | _ when not (Expr.has_if e && Expr.Phys_tbl.visit seen e) -> ()
    | If (c, _, _, _) ->
        let key = (c.rel, Expr.hash c.lhs, Expr.hash c.rhs) in
        if Hashtbl.mem counts key then Hashtbl.replace counts key true
        else Hashtbl.add counts key false;
        walk c.lhs;
        walk c.rhs
    | _ -> List.iter walk (Expr.children e)
  in
  List.iter walk roots;
  Hashtbl.filter_map_inplace (fun _ twice -> if twice then Some true else None) counts;
  counts

(* The scratch's emitter, emptied for the program of [roots]. *)
let start s roots =
  let em = s.em in
  em.len <- 0;
  em.next_reg <- 0;
  em.nconsts <- 0;
  Hashtbl.clear em.const_tbl;
  new_segment em.memo;
  em.memo.recurs <- recurring roots;
  em

let finish ?(optimize = true) ?private_env_slot s ~env_size ~out_size =
  let em = s.em in
  let q =
    {
      Peephole.code = em.buf;
      consts = Array.sub em.consts 0 em.nconsts;
      nregs = max 1 em.next_reg;
    }
  in
  let q =
    if optimize then Peephole.optimize ?private_env_slot s.pp ~len:em.len q
    else { q with code = Array.sub em.buf 0 em.len }
  in
  of_code ~env_size ~out_size q

let compile_stmts ?optimize ?private_env_slot ?(scratch = scratch ())
    ~out_size layout stmts =
  let em = start scratch (List.map fst stmts) in
  let index = Layout.slot layout in
  List.iter
    (fun (e, tgt) ->
      let r = lower em index e in
      match tgt with
      | To_env s ->
          emit em Vm_code.op_ste 0 r 0 s;
          new_segment em.memo
      | To_out s -> emit em Vm_code.op_sto 0 r 0 s)
    stmts;
  finish ?optimize ?private_env_slot scratch ~env_size:(Layout.size layout)
    ~out_size

(* ---- interpreter ---- *)

(* The loop is a toplevel function over immediate parameters — a local
   recursive function would capture its six arrays in a closure and
   allocate it on every call. *)
let rec loop code consts regs env out stop pc =
  if pc < stop then begin
      let op = Array.unsafe_get code pc in
      let d = Array.unsafe_get code (pc + 1) in
      let a = Array.unsafe_get code (pc + 2) in
      let b = Array.unsafe_get code (pc + 3) in
      let c = Array.unsafe_get code (pc + 4) in
      match op with
      | 0 (* ldc *) ->
          Array.unsafe_set regs d (Array.unsafe_get consts c);
          loop code consts regs env out stop (pc + 5)
      | 1 (* ldv *) ->
          Array.unsafe_set regs d (Array.unsafe_get env a);
          loop code consts regs env out stop (pc + 5)
      | 2 (* mov *) ->
          Array.unsafe_set regs d (Array.unsafe_get regs a);
          loop code consts regs env out stop (pc + 5)
      | 3 (* add *) ->
          Array.unsafe_set regs d
            (Array.unsafe_get regs a +. Array.unsafe_get regs b);
          loop code consts regs env out stop (pc + 5)
      | 4 (* sub *) ->
          Array.unsafe_set regs d
            (Array.unsafe_get regs a -. Array.unsafe_get regs b);
          loop code consts regs env out stop (pc + 5)
      | 5 (* mul *) ->
          Array.unsafe_set regs d
            (Array.unsafe_get regs a *. Array.unsafe_get regs b);
          loop code consts regs env out stop (pc + 5)
      | 6 (* neg *) ->
          Array.unsafe_set regs d (-.Array.unsafe_get regs a);
          loop code consts regs env out stop (pc + 5)
      | 7 (* sqr *) ->
          let x = Array.unsafe_get regs a in
          Array.unsafe_set regs d (x *. x);
          loop code consts regs env out stop (pc + 5)
      | 8 (* recip *) ->
          Array.unsafe_set regs d (1. /. Array.unsafe_get regs a);
          loop code consts regs env out stop (pc + 5)
      | 9 (* pow *) ->
          Array.unsafe_set regs d
            (Expr.eval_pow (Array.unsafe_get regs a) (Array.unsafe_get regs b));
          loop code consts regs env out stop (pc + 5)
      | 10 (* fma *) ->
          (* Two rounded operations, matching Eval.eval — not a hardware
             fused multiply-add. *)
          Array.unsafe_set regs d
            ((Array.unsafe_get regs a *. Array.unsafe_get regs b)
            +. Array.unsafe_get regs c);
          loop code consts regs env out stop (pc + 5)
      | 11 (* addk *) ->
          Array.unsafe_set regs d
            (Array.unsafe_get regs a +. Array.unsafe_get consts c);
          loop code consts regs env out stop (pc + 5)
      | 12 (* mulk *) ->
          Array.unsafe_set regs d
            (Array.unsafe_get regs a *. Array.unsafe_get consts c);
          loop code consts regs env out stop (pc + 5)
      | 13 (* call1 *) ->
          let x = Array.unsafe_get regs a in
          (match c with
          | 0 -> Array.unsafe_set regs d (Float.sin x)
          | 1 -> Array.unsafe_set regs d (Float.cos x)
          | 2 -> Array.unsafe_set regs d (Float.tan x)
          | 3 -> Array.unsafe_set regs d (Float.asin x)
          | 4 -> Array.unsafe_set regs d (Float.acos x)
          | 5 -> Array.unsafe_set regs d (Float.atan x)
          | 6 -> Array.unsafe_set regs d (Float.sinh x)
          | 7 -> Array.unsafe_set regs d (Float.cosh x)
          | 8 -> Array.unsafe_set regs d (Float.tanh x)
          | 9 -> Array.unsafe_set regs d (Float.exp x)
          | 10 -> Array.unsafe_set regs d (Float.log x)
          | 11 -> Array.unsafe_set regs d (Float.sqrt x)
          | 12 -> Array.unsafe_set regs d (Float.abs x)
          | _ (* 13: sign *) ->
              Array.unsafe_set regs d
                (if x > 0. then 1. else if x < 0. then -1. else 0.));
          loop code consts regs env out stop (pc + 5)
      | 14 (* call2 *) ->
          let x = Array.unsafe_get regs a in
          let y = Array.unsafe_get regs b in
          (match c with
          | 0 -> Array.unsafe_set regs d (Float.atan2 x y)
          | 1 ->
              (* Float.min semantics, inlined: the stdlib function is
                 not flagged [@@noalloc] and would box at the call. *)
              Array.unsafe_set regs d
                (if x <> x then x
                 else if y <> y then y
                 else if x < y then x
                 else if y < x then y
                 else if x = 0. && 1. /. x < 0. then x
                 else y)
          | 2 ->
              (* Float.max semantics, inlined. *)
              Array.unsafe_set regs d
                (if x <> x then x
                 else if y <> y then y
                 else if x < y then y
                 else if y < x then x
                 else if x = 0. && 1. /. x < 0. then y
                 else x)
          | _ (* 3: hypot *) -> Array.unsafe_set regs d (Float.hypot x y));
          loop code consts regs env out stop (pc + 5)
      | 15 (* vmul *) ->
          Array.unsafe_set regs d
            (Array.unsafe_get env a *. Array.unsafe_get env b);
          loop code consts regs env out stop (pc + 5)
      | 16 (* vmacc *) ->
          Array.unsafe_set regs d
            (Array.unsafe_get regs a
            +. (Array.unsafe_get env b *. Array.unsafe_get env c));
          loop code consts regs env out stop (pc + 5)
      | 17 (* jmp *) -> loop code consts regs env out stop c
      | 18 (* jnot *) ->
          let x = Array.unsafe_get regs a in
          let y = Array.unsafe_get regs b in
          let holds =
            match d with
            | 0 -> x < y
            | 1 -> x <= y
            | 2 -> x > y
            | _ -> x >= y
          in
          if holds then loop code consts regs env out stop (pc + 5)
          else loop code consts regs env out stop c
      | 19 (* ste *) ->
          Array.unsafe_set env c (Array.unsafe_get regs a);
          loop code consts regs env out stop (pc + 5)
      | _ (* 20: sto *) ->
          Array.unsafe_set out c (Array.unsafe_get regs a);
          loop code consts regs env out stop (pc + 5)
    end

(* The code, constant pool and metadata are immutable after [finish];
   only [regs] is written during execution.  Sharing everything but the
   register file therefore yields an independently runnable program for
   a few words plus [nregs] floats — the per-executor cloning primitive
   the serve layer builds on. *)
let clone_scratch p = { p with regs = Array.make p.nregs 0. }

let exec p ~env ~out =
  if Array.length env < p.env_size then invalid_arg "Vm.exec: env too small";
  if Array.length out < p.out_size then invalid_arg "Vm.exec: out too small";
  loop p.code p.consts p.regs env out (Array.length p.code) 0

(* ---- raw view ---- *)

type raw = {
  rw_code : int array;
  rw_consts : float array;
  rw_nregs : int;
  rw_env_size : int;
  rw_out_size : int;
}

let raw p =
  {
    rw_code = p.code;
    rw_consts = p.consts;
    rw_nregs = p.nregs;
    rw_env_size = p.env_size;
    rw_out_size = p.out_size;
  }

(* ---- inspection ---- *)

let length p = Array.length p.code / Vm_code.stride
let instructions p = Vm_code.decode p.code p.consts

let disassemble p =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i ins ->
      Buffer.add_string b
        (Printf.sprintf "%4d  %s\n"
           (i * Vm_code.stride)
           (Format.asprintf "%a" Vm_code.pp_instr ins)))
    (instructions p);
  Buffer.contents b

let stats p =
  let n = length p in
  let flops = ref 0. in
  let fused = ref 0 in
  for i = 0 to n - 1 do
    let pos = i * Vm_code.stride in
    flops := !flops +. Vm_code.flop_weight p.code pos;
    if Vm_code.is_fused p.code.(pos) then incr fused
  done;
  { instrs = n; flops = !flops; fused = !fused }
