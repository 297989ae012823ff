open Inltune_jir
(* Block-local copy propagation: within a basic block, uses of a register
   that was assigned [Move (d, s)] are rewritten to use [s] directly while
   neither register has been redefined.  Cleans up the argument-binding moves
   the inliner introduces when caller and callee cooperate within a block;
   cross-block copies are left to the interpreter (they model the real
   register moves Jikes emits after inlining). *)

let analysis_budget = 2_000_000

let run m =
  if Array.length m.Ir.blocks * m.Ir.nregs > analysis_budget then (m, 0)
  else
  let nregs = m.Ir.nregs in
  let rewritten = ref 0 in
  (* copy_of.(r) = s >= 0 when r currently holds a copy of s, -1 otherwise.
     copiers.(s) over-approximates the registers copying s (it may hold
     stale entries from registers since redefined; [invalidate] re-checks),
     so killing the copies of a redefined source is proportional to the
     copies made, not to nregs.  [touched] lists the registers whose
     [copy_of] or [copiers] entries the current block set — the only entries
     that can be off their defaults — so the per-block reset is
     proportional to the block's copies too, not to nregs. *)
  let copy_of = Array.make nregs (-1) in
  let copiers = Array.make nregs [] in
  let touched = ref [] in
  let blocks =
    Array.map
      (fun blk ->
        List.iter
          (fun r ->
            copy_of.(r) <- -1;
            copiers.(r) <- [])
          !touched;
        touched := [];
        let resolve r =
          let s = copy_of.(r) in
          if s >= 0 then begin
            incr rewritten;
            s
          end
          else r
        in
        let invalidate d =
          copy_of.(d) <- -1;
          match copiers.(d) with
          | [] -> ()
          | rs ->
            List.iter (fun r -> if copy_of.(r) = d then copy_of.(r) <- -1) rs;
            copiers.(d) <- []
        in
        (* [resolve r = r] exactly when no copy fires (a register is never a
           copy of itself), so sharing [i] when every operand resolves to
           itself is precise.  Copy-on-write at both levels — instruction
           boxes and the per-block array — because this pass runs on every
           optimizing compile and mostly changes nothing. *)
        let resolve_args args =
          let changed = ref false in
          let args' =
            Array.map
              (fun r ->
                let r' = resolve r in
                if r' <> r then changed := true;
                r')
              args
          in
          if !changed then Some args' else None
        in
        let instrs = blk.Ir.instrs in
        let out = ref instrs in
        for k = 0 to Array.length instrs - 1 do
          let i = instrs.(k) in
          let replacement =
            match i with
            | Ir.Const _ | Ir.Alloc _ -> None
            | Ir.Move (d, s) ->
              let s' = resolve s in
              if s' <> s then Some (Ir.Move (d, s')) else None
            | Ir.Binop (op, d, a, b) ->
              let a' = resolve a and b' = resolve b in
              if a' <> a || b' <> b then Some (Ir.Binop (op, d, a', b')) else None
            | Ir.Cmp (op, d, a, b) ->
              let a' = resolve a and b' = resolve b in
              if a' <> a || b' <> b then Some (Ir.Cmp (op, d, a', b')) else None
            | Ir.Load (d, o, off) ->
              let o' = resolve o in
              if o' <> o then Some (Ir.Load (d, o', off)) else None
            | Ir.Store (o, off, s) ->
              let o' = resolve o and s' = resolve s in
              if o' <> o || s' <> s then Some (Ir.Store (o', off, s')) else None
            | Ir.LoadIdx (d, o, ix) ->
              let o' = resolve o and ix' = resolve ix in
              if o' <> o || ix' <> ix then Some (Ir.LoadIdx (d, o', ix')) else None
            | Ir.StoreIdx (o, ix, s) ->
              let o' = resolve o and ix' = resolve ix and s' = resolve s in
              if o' <> o || ix' <> ix || s' <> s then Some (Ir.StoreIdx (o', ix', s'))
              else None
            | Ir.ClassOf (d, o) ->
              let o' = resolve o in
              if o' <> o then Some (Ir.ClassOf (d, o')) else None
            | Ir.Call (d, t, args) -> (
              match resolve_args args with
              | Some args' -> Some (Ir.Call (d, t, args'))
              | None -> None)
            | Ir.CallVirt (d, slot, recv, args) -> (
              let recv' = resolve recv in
              match resolve_args args with
              | Some args' -> Some (Ir.CallVirt (d, slot, recv', args'))
              | None ->
                if recv' <> recv then Some (Ir.CallVirt (d, slot, recv', args))
                else None)
            | Ir.Print r ->
              let r' = resolve r in
              if r' <> r then Some (Ir.Print r') else None
          in
          let i' =
            match replacement with
            | Some i' ->
              if !out == instrs then out := Array.copy instrs;
              (!out).(k) <- i';
              i'
            | None -> i
          in
          let d = Ir.def_reg i' in
          if d >= 0 then begin
            invalidate d;
            match i' with
            | Ir.Move (d, s) when d <> s ->
              copy_of.(d) <- s;
              copiers.(s) <- d :: copiers.(s);
              touched := d :: s :: !touched
            | _ -> ()
          end
        done;
        let term =
          match blk.Ir.term with
          | Ir.Jump _ -> blk.Ir.term
          | Ir.Branch (c, t, f) ->
            let c' = resolve c in
            if c' <> c then Ir.Branch (c', t, f) else blk.Ir.term
          | Ir.Ret r ->
            let r' = resolve r in
            if r' <> r then Ir.Ret r' else blk.Ir.term
        in
        if !out == instrs && term == blk.Ir.term then blk
        else { Ir.instrs = !out; term })
      m.Ir.blocks
  in
  ({ m with Ir.blocks }, !rewritten)
