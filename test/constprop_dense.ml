open Inltune_jir
(* The dense constant propagation the optimizer used before its lattice
   state was restricted to each block's live-in registers, kept verbatim as
   the differential oracle for {!Inltune_opt.Constprop}: per-block state for
   every register with an upward-exposed use anywhere ([nblocks * ng]
   cells), the same fixpoint order, join, transfer and rewrite.  The new
   pass must return a structurally equal method and equal statistics on
   every input.  The only change from the original is that the state arrays
   are allocated per call instead of taken from a per-domain scratch. *)

let t_undef = 0
let t_const = 1
let t_obj = 2
let t_any = 3

(* One instruction's effect on the flat environment. *)
let transfer env_tag env_val i =
  let set d t v =
    env_tag.(d) <- t;
    env_val.(d) <- v
  in
  match i with
  | Ir.Const (d, n) -> set d t_const n
  | Ir.Move (d, s) -> set d env_tag.(s) env_val.(s)
  | Ir.Binop (op, d, a, b) ->
    if env_tag.(a) = t_const && env_tag.(b) = t_const then
      set d t_const (Ir.eval_binop op env_val.(a) env_val.(b))
    else set d t_any 0
  | Ir.Cmp (op, d, a, b) ->
    if env_tag.(a) = t_const && env_tag.(b) = t_const then
      set d t_const (Ir.eval_cmp op env_val.(a) env_val.(b))
    else set d t_any 0
  | Ir.Load (d, _, _) | Ir.LoadIdx (d, _, _) -> set d t_any 0
  | Ir.ClassOf (d, o) ->
    if env_tag.(o) = t_obj then set d t_const env_val.(o) else set d t_any 0
  | Ir.Store _ | Ir.StoreIdx _ -> ()
  | Ir.Alloc (d, kid, _) -> set d t_obj kid
  | Ir.Call (d, _, _) | Ir.CallVirt (d, _, _, _) -> set d t_any 0
  | Ir.Print _ -> ()

let analyze m =
  let nblocks = Array.length m.Ir.blocks in
  let nregs = m.Ir.nregs in
  (* Only registers with an upward-exposed use somewhere — read in some block
     (instruction or terminator) before any definition in that block — need
     cross-block lattice state: any other register's incoming value is never
     consulted, by either the transfer or the rewrite.  Post-inlining bodies
     are dominated by block-local temporaries, so carrying, blitting and
     joining state for all [nregs] registers made the fixpoint's cost scale
     with code the analysis never looks at.  [gregs] lists the carried
     registers; [g_of] maps a register to its slot in a block's state slice.
     The restriction is exact, not approximate, so every fold/devirt decision
     is identical to the dense formulation's. *)
  let g_of = Array.make nregs (-1) in
  let gregs = Array.make nregs 0 in
  let ng = ref 0 in
  let def_stamp = Array.make nregs (-1) in
  for bi = 0 to nblocks - 1 do
    let blk = m.Ir.blocks.(bi) in
    let use r =
      if def_stamp.(r) <> bi && g_of.(r) < 0 then begin
        g_of.(r) <- !ng;
        gregs.(!ng) <- r;
        incr ng
      end
    in
    Array.iter
      (fun i ->
        Ir.iter_uses use i;
        let d = Ir.def_reg i in
        if d >= 0 then def_stamp.(d) <- bi)
      blk.Ir.instrs;
    match blk.Ir.term with
    | Ir.Branch (c, _, _) -> use c
    | Ir.Ret r -> use r
    | Ir.Jump _ -> ()
  done;
  let ng = !ng in
  let in_tag = Array.make (nblocks * ng) 0 and in_val = Array.make (nblocks * ng) 0 in
  (* Entry: arguments hold caller-supplied values; all other registers are
     zero-initialized by the calling convention, so Const 0 is both sound
     and precise. *)
  for gi = 0 to ng - 1 do
    in_tag.(gi) <- (if gregs.(gi) < m.Ir.nargs then t_any else t_const);
    in_val.(gi) <- 0
  done;
  let env_tag = Array.make nregs 0 in
  let env_val = Array.make nregs 0 in
  let preds_done = Array.make nblocks false in
  preds_done.(0) <- true;
  (* Reverse postorder over the reachable blocks.  Processing pending blocks
     in this order lets one sweep push values through whole forward chains,
     so the fixpoint converges in about loop-depth + 2 sweeps instead of
     rippling one block per visit; the least fixpoint itself is
     order-independent, so the result is unchanged.  Unreachable blocks are
     never processed; [rewrite] treats them as all-Undef via [seen]. *)
  let order = Array.make nblocks 0 in
  let onum = ref nblocks in
  let seen = Array.make nblocks false in
  let stack = Stack.create () in
  Stack.push (0, Ir.successors m.Ir.blocks.(0).Ir.term) stack;
  seen.(0) <- true;
  while not (Stack.is_empty stack) do
    match Stack.pop stack with
    | bi, [] ->
      decr onum;
      order.(!onum) <- bi
    | bi, s :: rest ->
      Stack.push (bi, rest) stack;
      if not seen.(s) then begin
        seen.(s) <- true;
        Stack.push (s, Ir.successors m.Ir.blocks.(s).Ir.term) stack
      end
  done;
  let first = !onum in
  let pending = Array.make nblocks false in
  pending.(0) <- true;
  let npending = ref 1 in
  while !npending > 0 do
    for k = first to nblocks - 1 do
      let bi = order.(k) in
      if pending.(bi) then begin
        pending.(bi) <- false;
        decr npending;
        let ib = bi * ng in
        for gi = 0 to ng - 1 do
          let r = Array.unsafe_get gregs gi in
          Array.unsafe_set env_tag r (Array.unsafe_get in_tag (ib + gi));
          Array.unsafe_set env_val r (Array.unsafe_get in_val (ib + gi))
        done;
        let blk = m.Ir.blocks.(bi) in
        Array.iter (transfer env_tag env_val) blk.Ir.instrs;
        List.iter
          (fun succ ->
            let changed = ref false in
            let sb = succ * ng in
            if not preds_done.(succ) then begin
              (* First flow into this block: adopt env wholesale. *)
              for gi = 0 to ng - 1 do
                let r = Array.unsafe_get gregs gi in
                Array.unsafe_set in_tag (sb + gi) (Array.unsafe_get env_tag r);
                Array.unsafe_set in_val (sb + gi) (Array.unsafe_get env_val r)
              done;
              preds_done.(succ) <- true;
              changed := true
            end
            else
              (* dst <- join dst env, written out on the flat encoding:
                 join with Undef is identity, Any absorbs, equal Const/Obj
                 values persist, any other mix goes to Any.  Unsafe accesses:
                 [sb + gi < nblocks * ng] and [gi < ng] by construction, and
                 this loop is the pass's hottest code. *)
              for gi = 0 to ng - 1 do
                let dt = Array.unsafe_get in_tag (sb + gi)
                and et = Array.unsafe_get env_tag (Array.unsafe_get gregs gi) in
                if et = t_undef || dt = t_any then ()
                else if dt = t_undef then begin
                  Array.unsafe_set in_tag (sb + gi) et;
                  Array.unsafe_set in_val (sb + gi)
                    (Array.unsafe_get env_val (Array.unsafe_get gregs gi));
                  changed := true
                end
                else if
                  dt = et
                  && Array.unsafe_get in_val (sb + gi)
                     = Array.unsafe_get env_val (Array.unsafe_get gregs gi)
                then ()
                else begin
                  Array.unsafe_set in_tag (sb + gi) t_any;
                  Array.unsafe_set in_val (sb + gi) 0;
                  changed := true
                end
              done;
            if !changed && not pending.(succ) then begin
              pending.(succ) <- true;
              incr npending
            end)
          (Ir.successors blk.Ir.term)
      end
    done
  done;
  (in_tag, in_val, seen, gregs, ng)

(* Algebraic simplification of a binop with one known-constant operand.
   Returns a replacement instruction, or None to keep the original.  Only
   reached when at most one operand is constant (both-constant folds first),
   so the identity checks cannot overlap. *)
let simplify_binop op d a b ta va tb vb =
  let move s = Some (Ir.Move (d, s)) in
  let const n = Some (Ir.Const (d, n)) in
  let ca = ta = t_const and cb = tb = t_const in
  match op with
  | Ir.Add ->
    if ca && va = 0 then move b else if cb && vb = 0 then move a else None
  | Ir.Sub -> if cb && vb = 0 then move a else None
  | Ir.Mul ->
    if ca && va = 1 then move b
    else if cb && vb = 1 then move a
    else if (ca && va = 0) || (cb && vb = 0) then const 0
    else None
  | Ir.And -> if (ca && va = 0) || (cb && vb = 0) then const 0 else None
  | Ir.Or -> if ca && va = 0 then move b else if cb && vb = 0 then move a else None
  | Ir.Xor -> if ca && va = 0 then move b else if cb && vb = 0 then move a else None
  | Ir.Shl | Ir.Shr -> if cb && vb = 0 then move a else None
  | Ir.Div -> if cb && vb = 1 then move a else None
  | Ir.Mod -> None

let rewrite prog m (in_tag, in_val, reached, gregs, ng) =
  let stats = { Inltune_opt.Constprop.folded = 0; devirtualized = 0; branches_folded = 0 } in
  let nregs = m.Ir.nregs in
  let env_tag = Array.make nregs 0 in
  let env_val = Array.make nregs 0 in
  let blocks =
    Array.mapi
      (fun bi blk ->
        (* Only the carried (upward-exposed) registers are loaded from the
           block's in-state; every other register's env entry is written by an
           in-block definition before any use reads it, so its stale content
           is unobservable — the same argument that let [analyze] drop them. *)
        if reached.(bi) then begin
          let ib = bi * ng in
          for gi = 0 to ng - 1 do
            let r = gregs.(gi) in
            env_tag.(r) <- in_tag.(ib + gi);
            env_val.(r) <- in_val.(ib + gi)
          done
        end
        else
          (* Never flowed into, so its slice was never written; its
             in-state is all-Undef by definition. *)
          for gi = 0 to ng - 1 do
            env_tag.(gregs.(gi)) <- t_undef
          done;
        let instrs = blk.Ir.instrs in
        (* Copy-on-write: most blocks survive a (second) constprop run
           untouched, and rebuilding every instruction array per compile was
           measurable GC churn on post-inlining methods. *)
        let out = ref instrs in
        for k = 0 to Array.length instrs - 1 do
          let i = instrs.(k) in
          let replacement =
            match i with
            | Ir.Binop (op, d, a, b) ->
              if env_tag.(a) = t_const && env_tag.(b) = t_const then begin
                stats.folded <- stats.folded + 1;
                Some (Ir.Const (d, Ir.eval_binop op env_val.(a) env_val.(b)))
              end
              else begin
                let r =
                  simplify_binop op d a b env_tag.(a) env_val.(a) env_tag.(b) env_val.(b)
                in
                if r <> None then stats.folded <- stats.folded + 1;
                r
              end
            | Ir.Cmp (op, d, a, b) ->
              if env_tag.(a) = t_const && env_tag.(b) = t_const then begin
                stats.folded <- stats.folded + 1;
                Some (Ir.Const (d, Ir.eval_cmp op env_val.(a) env_val.(b)))
              end
              else None
            | Ir.Move (d, s) ->
              if env_tag.(s) = t_const then begin
                stats.folded <- stats.folded + 1;
                Some (Ir.Const (d, env_val.(s)))
              end
              else None
            | Ir.ClassOf (d, o) ->
              if env_tag.(o) = t_obj then begin
                stats.folded <- stats.folded + 1;
                Some (Ir.Const (d, env_val.(o)))
              end
              else None
            | Ir.CallVirt (d, slot, recv, args) ->
              if env_tag.(recv) = t_obj then begin
                let k = prog.Ir.classes.(env_val.(recv)) in
                if slot < Array.length k.Ir.vtable then begin
                  stats.devirtualized <- stats.devirtualized + 1;
                  Some (Ir.Call (d, k.Ir.vtable.(slot), Array.append [| recv |] args))
                end
                else None
              end
              else None
            | _ -> None
          in
          (match replacement with
          | Some i' ->
            if !out == instrs then out := Array.copy instrs;
            (!out).(k) <- i';
            transfer env_tag env_val i'
          | None -> transfer env_tag env_val i)
        done;
        let term =
          match blk.Ir.term with
          | Ir.Branch (c, t, f) ->
            if env_tag.(c) = t_const then begin
              stats.branches_folded <- stats.branches_folded + 1;
              if env_val.(c) = 0 then Ir.Jump f else Ir.Jump t
            end
            else blk.Ir.term
          | t -> t
        in
        if !out == instrs && term == blk.Ir.term then blk
        else { Ir.instrs = !out; term })
      m.Ir.blocks
  in
  ({ m with Ir.blocks }, stats)

(* Dataflow state is O(blocks * registers); on monster methods produced by
   maximally aggressive inlining a real compiler bails to a cheaper strategy,
   and so do we: beyond this budget the method is returned unchanged. *)
let analysis_budget = 2_000_000

let run prog m =
  if Array.length m.Ir.blocks * m.Ir.nregs > analysis_budget then
    (m, { Inltune_opt.Constprop.folded = 0; devirtualized = 0; branches_folded = 0 })
  else begin
    let in_states = analyze m in
    rewrite prog m in_states
  end
