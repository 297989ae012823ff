open Inltune_jir
(* Global liveness: a register is live at a point if some path from there
   reads it before writing it.  Backward dataflow to the unique least
   fixpoint, shared by dead-code elimination (which deletes pure
   instructions whose destination is dead on exit) and constant propagation
   (which carries lattice state only for each block's live-in registers).

   Live sets are bit vectors packed into int arrays (one [words]-sized slice
   per block, 63 registers per int) and the per-instruction transfer
   sets/clears bits via direct matches, with no per-instruction allocation:
   liveness runs inside every optimizing compile and dominates its wall time
   on big post-inlining methods.  The fixpoint is the unique least solution,
   so the result is identical to the straightforward set-based
   formulation. *)

type t = {
  words : int;
  live_in : int array;
}

let mem v r = v.(r / 63) land (1 lsl (r mod 63)) <> 0
let set v r = v.(r / 63) <- v.(r / 63) lor (1 lsl (r mod 63))
let clear v r = v.(r / 63) <- v.(r / 63) land lnot (1 lsl (r mod 63))

let add_uses v = function
  | Ir.Const _ | Ir.Alloc _ -> ()
  | Ir.Move (_, s) -> set v s
  | Ir.Binop (_, _, a, b) | Ir.Cmp (_, _, a, b) ->
    set v a;
    set v b
  | Ir.Load (_, o, _) -> set v o
  | Ir.Store (o, _, s) ->
    set v o;
    set v s
  | Ir.LoadIdx (_, o, ix) ->
    set v o;
    set v ix
  | Ir.StoreIdx (o, ix, s) ->
    set v o;
    set v ix;
    set v s
  | Ir.ClassOf (_, o) -> set v o
  | Ir.Call (_, _, args) ->
    for k = 0 to Array.length args - 1 do
      set v args.(k)
    done
  | Ir.CallVirt (_, _, recv, args) ->
    set v recv;
    for k = 0 to Array.length args - 1 do
      set v args.(k)
    done
  | Ir.Print s -> set v s

let clear_def v = function
  | Ir.Const (d, _)
  | Ir.Move (d, _)
  | Ir.Binop (_, d, _, _)
  | Ir.Cmp (_, d, _, _)
  | Ir.Load (d, _, _)
  | Ir.LoadIdx (d, _, _)
  | Ir.ClassOf (d, _)
  | Ir.Alloc (d, _, _)
  | Ir.Call (d, _, _)
  | Ir.CallVirt (d, _, _, _) -> clear v d
  | Ir.Store _ | Ir.StoreIdx _ | Ir.Print _ -> ()

let transfer_instr v i =
  clear_def v i;
  add_uses v i

let transfer_term v = function
  | Ir.Jump _ -> ()
  | Ir.Branch (c, _, _) -> set v c
  | Ir.Ret r -> set v r

(* Live-out is not stored: it is the union of the successors' live-in
   sets, recomputed into a scratch vector whenever it is needed.  Direct
   terminator match: [Ir.successors] allocates a list, and the fixpoint
   calls this far more often than once per block. *)
let live_out t v term =
  let words = t.words and live_in = t.live_in in
  Array.fill v 0 words 0;
  let merge s =
    let sb = s * words in
    for w = 0 to words - 1 do
      v.(w) <- v.(w) lor live_in.(sb + w)
    done
  in
  match term with
  | Ir.Jump l -> merge l
  | Ir.Branch (_, a, b) ->
    merge a;
    merge b
  | Ir.Ret _ -> ()

let analyze m =
  let blocks = m.Ir.blocks in
  let nblocks = Array.length blocks in
  let words = (m.Ir.nregs + 62) / 63 in
  let t = { words; live_in = Array.make (nblocks * words) 0 } in
  let live_in = t.live_in in
  (* The block being transferred, as a scratch bit vector. *)
  let cur = Array.make words 0 in
  (* Predecessor lists for the backward worklist. *)
  let preds = Array.make nblocks [] in
  Array.iteri
    (fun bi blk ->
      List.iter (fun s -> preds.(s) <- bi :: preds.(s)) (Ir.successors blk.Ir.term))
    blocks;
  (* cur <- live-in of [bi], computed from its successors' live-in. *)
  let transfer bi =
    let blk = blocks.(bi) in
    live_out t cur blk.Ir.term;
    transfer_term cur blk.Ir.term;
    let instrs = blk.Ir.instrs in
    for k = Array.length instrs - 1 downto 0 do
      transfer_instr cur instrs.(k)
    done
  in
  (* Allocation-free worklist: an int stack with an on-stack flag so a
     block is never queued twice.  The fixpoint is the unique least
     solution, so visit order cannot change the resulting live sets. *)
  let work = Array.make nblocks 0 in
  let on_work = Bytes.make nblocks '\001' in
  let sp = ref nblocks in
  (* Popped top-down, so the last block comes off first — late blocks first
     is the fast direction for a backward analysis. *)
  for bi = 0 to nblocks - 1 do
    work.(bi) <- bi
  done;
  while !sp > 0 do
    decr sp;
    let bi = work.(!sp) in
    Bytes.unsafe_set on_work bi '\000';
    transfer bi;
    let ib = bi * words in
    let changed = ref false in
    for w = 0 to words - 1 do
      if cur.(w) <> live_in.(ib + w) then begin
        changed := true;
        live_in.(ib + w) <- cur.(w)
      end
    done;
    if !changed then
      List.iter
        (fun p ->
          if Bytes.unsafe_get on_work p = '\000' then begin
            Bytes.unsafe_set on_work p '\001';
            work.(!sp) <- p;
            incr sp
          end)
        preds.(bi)
  done;
  t

let live_in_lists t ~nblocks =
  let words = t.words in
  let count = ref 0 in
  for k = 0 to (nblocks * words) - 1 do
    let w = ref t.live_in.(k) in
    while !w <> 0 do
      w := !w land (!w - 1);
      incr count
    done
  done;
  let offsets = Array.make (nblocks + 1) 0 in
  let regs = Array.make !count 0 in
  let n = ref 0 in
  for bi = 0 to nblocks - 1 do
    offsets.(bi) <- !n;
    for w = 0 to words - 1 do
      let bits = t.live_in.((bi * words) + w) in
      if bits <> 0 then
        for b = 0 to 62 do
          if bits land (1 lsl b) <> 0 then begin
            regs.(!n) <- (w * 63) + b;
            incr n
          end
        done
    done
  done;
  offsets.(nblocks) <- !n;
  (offsets, regs)
