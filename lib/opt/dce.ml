open Inltune_jir
(* Dead-code elimination by global liveness.

   Pure instructions (no side effect beyond their destination) whose
   destination is dead are deleted.  Calls, stores and prints are always
   kept.  Liveness comes from {!Liveness}, the analysis constant
   propagation shares; the deletion walks each block backward from its
   live-out set, so a chain of dead definitions within a block goes in one
   pass.

   Together with constant propagation this removes the computation that
   folding made redundant — most of the code-size payback the optimizing
   compiler gets for having inlined. *)

(* Liveness is O(blocks * registers); monster methods produced by maximally
   aggressive inlining are skipped, mirroring [Constprop.analysis_budget]. *)
let analysis_budget = 2_000_000

let run m =
  if Array.length m.Ir.blocks * m.Ir.nregs > analysis_budget then (m, 0)
  else begin
    let lv = Liveness.analyze m in
    let cur = Array.make lv.Liveness.words 0 in
    let removed = ref 0 in
    let blocks' =
      Array.map
        (fun blk ->
          Liveness.live_out lv cur blk.Ir.term;
          Liveness.transfer_term cur blk.Ir.term;
          let instrs = blk.Ir.instrs in
          let n = Array.length instrs in
          let keep = Array.make n true in
          let kept = ref 0 in
          for k = n - 1 downto 0 do
            let i = instrs.(k) in
            let dead =
              Ir.pure i
              &&
              match i with
              | Ir.Const (d, _)
              | Ir.Move (d, _)
              | Ir.Binop (_, d, _, _)
              | Ir.Cmp (_, d, _, _)
              | Ir.Load (d, _, _)
              | Ir.LoadIdx (d, _, _)
              | Ir.ClassOf (d, _)
              | Ir.Alloc (d, _, _) -> not (Liveness.mem cur d)
              | _ -> false
            in
            if dead then begin
              keep.(k) <- false;
              incr removed
            end
            else begin
              incr kept;
              Liveness.transfer_instr cur i
            end
          done;
          if !kept = n then blk
          else begin
            let instrs' = Array.make !kept (Ir.Print 0) in
            let j = ref 0 in
            for k = 0 to n - 1 do
              if keep.(k) then begin
                instrs'.(!j) <- instrs.(k);
                incr j
              end
            done;
            { blk with Ir.instrs = instrs' }
          end)
        m.Ir.blocks
    in
    ({ m with Ir.blocks = blocks' }, !removed)
  end
