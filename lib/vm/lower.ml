open Inltune_jir

(* Compile-once lowering of a method to a flat int-coded instruction stream.

   The tree-walking interpreter pays for boxed [Ir.instr] variants, a cost
   computation and an icache-address computation per executed instruction,
   and block-offset lookups per block.  Lowering pays all of that once per
   compile instead:

   - blocks are flattened into one stream; every block contributes a
     synthetic ENTER op (per-block fuel and spill-cost accounting) followed
     by its instructions and its terminator, and branch targets are resolved
     to the flat pc of the target block's ENTER;
   - each executed instruction's simulated cost (tier quality multiplier
     times the platform instruction cost) and code-relative byte offset are
     precomputed;
   - static call sites are interned into dense {!Profile} site ids, so the
     interpreter's per-call profile update is one array increment;
   - the stream is packed into two words per instruction — [opc] carries the
     opcode, the precomputed cost and the code-relative byte offset, and
     [args] carries the three operand fields at 21 bits each — so one
     executed step streams two array slots.  The code-space address is
     stored once, as [base]: an instruction's icache address is
     [base + (opc lsr 32)].  Variable-length call argument lists and
     constant-pool values (a program constant can be any int, so it cannot
     live in a 21-bit field) are spilled into an [extra] pool.

   Because nothing in [opc] or [args] depends on where the code lives or on
   which VM runs it, lowering is split in two.  [template] does all of the
   work above except interning; [instantiate] binds a template to one VM by
   setting [base] and writing that VM's site ids into a copy of [extra] (the
   only VM-dependent words).  A template can therefore be built once and
   instantiated by every VM that installs the same code ({!Compile}'s
   per-program baseline table), and [opc]/[args] are shared between them.

   The lowering also re-validates every register, block target, operand
   field width, cost and offset width, and (at interning) callee id against
   the method being lowered, which is what licenses the unsafe array
   accesses in the flat interpreter's hot loop (pipeline output is not
   otherwise runtime-validated). *)

(* Opcode encoding.  [Machine]'s dispatch loop matches on these values as
   integer literals (OCaml patterns cannot name constants), and asserts at
   module init that the two stay in sync.

    0 const      x=dst  y=extra index of the value
    1 move       x=dst  y=src
    2..11 binop  x=dst  y=lhs  z=rhs   (add sub mul div mod and or xor shl shr)
   12..17 cmp    x=dst  y=lhs  z=rhs   (lt le eq ne gt ge)
   18 load       x=dst  y=obj  z=off
   19 store      x=obj  y=off  z=src
   20 loadidx    x=dst  y=obj  z=idx
   21 storeidx   x=obj  y=idx  z=src
   22 classof    x=dst  y=obj
   23 alloc      x=dst  y=kid  z=slots
   24 print      x=src
   25 call       x=dst  y=callee  z=extra offset -> [site id; nargs; args...]
   26 callvirt   x=dst  y=slot    z=extra offset -> [recv; nargs; args...]
   27 enter      (block entry: fuel + spill cost; never icache-touched)
   28 jump       x=target pc
   29 branch     x=cond  y=then pc  z=else pc
   30 ret        x=src *)

let op_const = 0
let op_move = 1
let op_binop_base = 2   (* + binop index, Add..Shr *)
let op_cmp_base = 12    (* + cmpop index, Lt..Ge *)
let op_load = 18
let op_store = 19
let op_loadidx = 20
let op_storeidx = 21
let op_classof = 22
let op_alloc = 23
let op_print = 24
let op_last_plain = 24  (* ops <= this share the plain-instruction prologue *)
let op_call = 25
let op_callvirt = 26
let op_enter = 27
let op_jump = 28
let op_branch = 29
let op_ret = 30

(* Operand fields are 21 bits: x | y<<21 | z<<42 fills the 63-bit int.
   Registers, flat pcs, extra-pool offsets, field offsets, callee and class
   ids all stay far below 2^21 for any body the pipeline's growth budget
   admits; [template] rejects anything wider rather than truncating. *)
let field_bits = 21
let field_mask = (1 lsl field_bits) - 1

(* The [opc] word: opcode in bits 0-7, cost in bits 8-31, code-relative byte
   offset in bits 32-62.  The largest cost the platforms produce, a baseline
   [Alloc] of a 21-bit slot count, stays under 2^23; [template] rejects a
   cost or an offset that does not fit rather than truncating.  The offset
   occupies the int's top bit, so [opc lsr 32] (a logical shift) recovers
   it. *)
let cost_shift = 8
let cost_mask = 0xFFFFFF
let offset_shift = 32
let offset_limit = 1 lsl 31

type code = {
  opc : int array;     (* opcode | cost << 8 | byte offset << 32 *)
  args : int array;    (* x | y << 21 | z << 42 *)
  extra : int array;   (* call operand pool and constant pool *)
  base : int;          (* code-space address of byte offset 0 *)
  nregs : int;
  spill : int;         (* per-executed-block spill cost *)
}

(* Placeholder for unused frame-pool slots; never executed. *)
let dummy = { opc = [||]; args = [||]; extra = [||]; base = 0; nregs = 0; spill = 0 }

type template = {
  code : code;         (* [base] 0; static-call site-id slots hold 0 *)
  calls : int array;   (* [extra offset; callee] per static call, in stream order *)
}

let binop_code = function
  | Ir.Add -> 2 | Ir.Sub -> 3 | Ir.Mul -> 4 | Ir.Div -> 5 | Ir.Mod -> 6
  | Ir.And -> 7 | Ir.Or -> 8 | Ir.Xor -> 9 | Ir.Shl -> 10 | Ir.Shr -> 11

let cmpop_code = function
  | Ir.Lt -> 12 | Ir.Le -> 13 | Ir.Eq -> 14 | Ir.Ne -> 15 | Ir.Gt -> 16 | Ir.Ge -> 17

let template ~(plat : Platform.t) ~quality ~bytes_per_instr ~spill (m : Ir.methd) =
  let blocks = m.Ir.blocks in
  let nblocks = Array.length blocks in
  let nregs = m.Ir.nregs in
  let bad what = invalid_arg (Printf.sprintf "Lower.lower: %s in %s" what m.Ir.mname) in
  let reg r = if r < 0 || r >= nregs then bad "register out of range"; r in
  let field v = if v < 0 || v > field_mask then bad "operand field out of range"; v in
  (* Flat pc of each block's ENTER, plus stream, extra-pool and static-call
     counts. *)
  let starts = Array.make (max 1 nblocks) 0 in
  let len = ref 0 and nextra = ref 0 and ncalls = ref 0 in
  for bi = 0 to nblocks - 1 do
    starts.(bi) <- !len;
    let instrs = blocks.(bi).Ir.instrs in
    len := !len + Array.length instrs + 2;
    Array.iter
      (function
        | Ir.Call (_, _, args) ->
          incr ncalls;
          nextra := !nextra + 2 + Array.length args
        | Ir.CallVirt (_, _, _, args) -> nextra := !nextra + 2 + Array.length args
        | Ir.Const _ -> incr nextra
        | _ -> ())
      instrs
  done;
  let n = !len in
  let opc = Array.make n 0
  and args = Array.make n 0
  and extra = Array.make (max 1 !nextra) 0
  and calls = Array.make (2 * !ncalls) 0 in
  let target l = if l < 0 || l >= nblocks then bad "block target out of range"; starts.(l) in
  let pc = ref 0 and eoff = ref 0 and ncall = ref 0 in
  (* [ioff] mirrors the tree-walker's instruction-index offsets exactly:
     instruction k of block bi sits at block_offsets.(bi) + k and the
     terminator at block_offsets.(bi) + n, where consecutive blocks are
     n + 1 indices apart (ENTER ops occupy no icache index). *)
  let ioff = ref 0 in
  let emit op x y z cost =
    if cost < 0 || cost > cost_mask then bad "cost out of range";
    let off = !ioff * bytes_per_instr in
    if off < 0 || off >= offset_limit then bad "code offset out of range";
    opc.(!pc) <- op lor (cost lsl cost_shift) lor (off lsl offset_shift);
    args.(!pc) <- field x lor (field y lsl field_bits) lor (field z lsl (2 * field_bits));
    incr pc;
    incr ioff
  in
  let spill_args call_args =
    let o = !eoff in
    extra.(o + 1) <- Array.length call_args;
    Array.iteri (fun j r -> extra.(o + 2 + j) <- reg r) call_args;
    eoff := o + 2 + Array.length call_args;
    o
  in
  for bi = 0 to nblocks - 1 do
    let blk = blocks.(bi) in
    assert (!pc = starts.(bi));
    opc.(!pc) <- op_enter;
    incr pc;
    Array.iter
      (fun i ->
        let cost = quality * Platform.instr_cost plat i in
        match i with
        | Ir.Const (d, v) ->
          let o = !eoff in
          extra.(o) <- v;
          eoff := o + 1;
          emit op_const (reg d) o 0 cost
        | Ir.Move (d, s) -> emit op_move (reg d) (reg s) 0 cost
        | Ir.Binop (op, d, a, b) -> emit (binop_code op) (reg d) (reg a) (reg b) cost
        | Ir.Cmp (op, d, a, b) -> emit (cmpop_code op) (reg d) (reg a) (reg b) cost
        | Ir.Load (d, o, off) -> emit op_load (reg d) (reg o) off cost
        | Ir.Store (o, off, s) -> emit op_store (reg o) off (reg s) cost
        | Ir.LoadIdx (d, o, idx) -> emit op_loadidx (reg d) (reg o) (reg idx) cost
        | Ir.StoreIdx (o, idx, s) -> emit op_storeidx (reg o) (reg idx) (reg s) cost
        | Ir.ClassOf (d, o) -> emit op_classof (reg d) (reg o) 0 cost
        | Ir.Alloc (d, kid, slots) -> emit op_alloc (reg d) kid slots cost
        | Ir.Print r -> emit op_print (reg r) 0 0 cost
        | Ir.Call (d, callee, call_args) ->
          let o = spill_args call_args in
          calls.(!ncall) <- o;
          calls.(!ncall + 1) <- callee;
          ncall := !ncall + 2;
          emit op_call (reg d) callee o cost
        | Ir.CallVirt (d, slot, recv, call_args) ->
          let o = spill_args call_args in
          extra.(o) <- reg recv;
          emit op_callvirt (reg d) slot o cost)
      blk.Ir.instrs;
    let tcost = quality * Platform.term_cost plat blk.Ir.term in
    (match blk.Ir.term with
    | Ir.Jump l -> emit op_jump (target l) 0 0 tcost
    | Ir.Branch (c, t, f) -> emit op_branch (reg c) (target t) (target f) tcost
    | Ir.Ret r -> emit op_ret (reg r) 0 0 tcost)
  done;
  assert (!pc = n);
  { code = { opc; args; extra; base = 0; nregs; spill }; calls }

(* Static call sites are interned in stream order — the order a single-pass
   lowering meets them — so a VM's site ids and [vm.interned_sites] come out
   as if it had lowered the method itself.  A method without static calls
   shares its template's [extra] too. *)
let instantiate t ~profile ~owner ~addr =
  let calls = t.calls in
  let extra =
    if Array.length calls = 0 then t.code.extra
    else begin
      let extra = Array.copy t.code.extra in
      for k = 0 to (Array.length calls / 2) - 1 do
        extra.(calls.(2 * k)) <-
          Profile.intern profile ~site_owner:owner ~callee:calls.((2 * k) + 1)
      done;
      extra
    end
  in
  { t.code with extra; base = addr }

let lower ~plat ~profile ~owner ~quality ~addr ~bytes_per_instr ~spill m =
  instantiate (template ~plat ~quality ~bytes_per_instr ~spill m) ~profile ~owner ~addr
