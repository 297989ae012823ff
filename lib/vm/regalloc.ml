open Inltune_jir

(* Linear-scan register allocation — as a *cost model*, not a transformation.

   Inlining merges register spaces: a method that swallowed five callees
   carries all their virtual registers, and on a register-starved machine
   (x86 of the paper's era had 8 GPRs) the allocator starts spilling.  This
   module estimates that cost so aggressive inlining pays a running-time
   price beyond the I-cache: the classic third term in the inlining
   trade-off.

   We approximate live intervals over a linearization of the blocks: each
   virtual register's interval spans from its first to its last occurrence
   (occurrences in loops are covered because the loop's blocks are contiguous
   in builder output, and the conservative [min,max] span only ever
   *overestimates* pressure).  Standard linear scan then counts how many
   intervals must live in memory, and how many of their occurrences turn
   into loads/stores. *)

type result = {
  vregs : int;            (* virtual registers with at least one occurrence *)
  max_pressure : int;     (* peak simultaneously-live intervals *)
  spilled : int;          (* intervals assigned to stack slots *)
  spill_ops : int;        (* occurrences of spilled registers (memory ops) *)
}

(* Working arrays, indexed by register ([first]/[last]/[count], and
   [order], the present registers by interval start), by position
   ([bucket], the counting sort) and by active slot ([active]). *)
type scratch = {
  first : int array;
  last : int array;
  count : int array;
  order : int array;
  bucket : int array;
  active : int array;
}

let scratch n =
  let a () = Array.make n 0 in
  { first = a (); last = a (); count = a (); order = a (); bucket = a (); active = a () }

let no_scratch = scratch 0

(* Each domain keeps one scratch of [cap] entries, so a run allocates
   only its result and the closure that records occurrences.  A method
   with more registers or positions than [cap] allocates its own arrays,
   so no domain keeps more than a few thousand words whatever it has
   compiled.  The systhreads of a domain share its slot and may switch in
   the middle of a run, so a run takes the scratch out of the slot until
   it returns, and a run that finds the slot empty works in fresh
   arrays. *)
let cap = 1024

let slot_key = Domain.DLS.new_key (fun () -> Atomic.make (Some (scratch cap)))

let buf a n = if n <= Array.length a then a else Array.make n 0

(* first.(r), last.(r), count.(r) over a linear numbering (-1 = absent):
   arguments at position 0, then one position per instruction and one per
   terminator, [Ir.instr_count m] in all. *)
let occurrences first last count m =
  let n = m.Ir.nregs in
  Array.fill first 0 n (-1);
  Array.fill last 0 n (-1);
  Array.fill count 0 n 0;
  let pos = ref 0 in
  let touch r =
    if first.(r) < 0 then first.(r) <- !pos;
    last.(r) <- !pos;
    count.(r) <- count.(r) + 1
  in
  (* Arguments are live from entry. *)
  for r = 0 to m.Ir.nargs - 1 do
    touch r
  done;
  let blocks = m.Ir.blocks in
  for bi = 0 to Array.length blocks - 1 do
    let blk = blocks.(bi) in
    let instrs = blk.Ir.instrs in
    for k = 0 to Array.length instrs - 1 do
      incr pos;
      let i = instrs.(k) in
      Ir.iter_uses touch i;
      let d = Ir.def_reg i in
      if d >= 0 then touch d
    done;
    incr pos;
    match blk.Ir.term with
    | Ir.Branch (c, _, _) -> touch c
    | Ir.Ret r -> touch r
    | Ir.Jump _ -> ()
  done

(* Insert [r] into the [n] active intervals after every one ending no
   later than it; returns the new count. *)
let insert_by_end last active n r =
  let e = last.(r) in
  let i = ref n in
  while !i > 0 && last.(active.(!i - 1)) > e do
    active.(!i) <- active.(!i - 1);
    decr i
  done;
  active.(!i) <- r;
  n + 1

let scan ~phys_regs s m =
  let nregs = m.Ir.nregs and npos = Ir.instr_count m + 1 in
  let first = buf s.first nregs and last = buf s.last nregs and count = buf s.count nregs in
  let order = buf s.order nregs and bucket = buf s.bucket (npos + 1) in
  let active = buf s.active phys_regs in
  occurrences first last count m;
  (* Present registers sorted by interval start: a counting sort over
     positions, stable, so ties stay in register order.  Tie order is
     observable: it decides which of two same-start intervals the scan
     considers first, and hence what spills. *)
  Array.fill bucket 0 (npos + 1) 0;
  let vregs = ref 0 in
  for r = 0 to nregs - 1 do
    let f = first.(r) in
    if f >= 0 then begin
      bucket.(f + 1) <- bucket.(f + 1) + 1;
      incr vregs
    end
  done;
  for p = 1 to npos do
    bucket.(p) <- bucket.(p) + bucket.(p - 1)
  done;
  for r = 0 to nregs - 1 do
    let f = first.(r) in
    if f >= 0 then begin
      order.(bucket.(f)) <- r;
      bucket.(f) <- bucket.(f) + 1
    end
  done;
  let vregs = !vregs in
  (* The active set, ordered by interval end (ties in insertion order), in
     [active.(0 .. nactive - 1)]; it never holds more than [phys_regs]. *)
  let nactive = ref 0 in
  let max_pressure = ref 0 and spilled = ref 0 and spill_ops = ref 0 in
  for k = 0 to vregs - 1 do
    let r = order.(k) in
    (* Expire intervals that ended before this one starts: a prefix. *)
    let start = first.(r) in
    let e = ref 0 in
    while !e < !nactive && last.(active.(!e)) < start do
      incr e
    done;
    if !e > 0 then begin
      Array.blit active !e active 0 (!nactive - !e);
      nactive := !nactive - !e
    end;
    if !nactive >= phys_regs then begin
      (* Spill the interval with the furthest end (it blocks the longest). *)
      let victim = active.(!nactive - 1) in
      incr spilled;
      if last.(victim) > last.(r) then begin
        nactive := insert_by_end last active (!nactive - 1) r;
        spill_ops := !spill_ops + count.(victim)
      end
      else spill_ops := !spill_ops + count.(r)
    end
    else nactive := insert_by_end last active !nactive r;
    max_pressure := max !max_pressure (!nactive + !spilled)
  done;
  {
    vregs;
    max_pressure = (if vregs = 0 then 0 else max !max_pressure 1);
    spilled = !spilled;
    spill_ops = !spill_ops;
  }

let run ~phys_regs m =
  if phys_regs < 2 then invalid_arg "Regalloc.run: need at least 2 physical registers";
  let slot = Domain.DLS.get slot_key in
  let held = Atomic.exchange slot None in
  let result = scan ~phys_regs (Option.value held ~default:no_scratch) m in
  if Option.is_some held then Atomic.set slot held;
  result

(* Per-block-execution spill surcharge for the interpreter: total spill
   traffic spread across the method's blocks, scaled by the platform's
   memory cost. *)
let block_spill_cost (plat : Platform.t) m result =
  if result.spilled = 0 then 0
  else
    let nblocks = max 1 (Array.length m.Ir.blocks) in
    max 1 (result.spill_ops * plat.Platform.cost_mem / nblocks)
