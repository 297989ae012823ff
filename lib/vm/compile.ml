open Inltune_jir
open Inltune_opt

(* The compiler tiers.

   Baseline: no transformation at all (bytecode is executed as-is) but the
   code runs with a quality penalty and occupies more space — fast to
   compile, slow to run, exactly Jikes RVM's non-optimizing compiler.

   Optimizing: runs the full [Pipeline] (devirtualize, inline under the
   heuristic, fold, DCE) and charges compile cycles that grow superlinearly
   with the post-inlining IR size, which is what makes CALLER_MAX_SIZE = 2048
   "overly aggressive" on compile-heavy workloads, as the paper observes.
   It is split in two: a front (pipeline + register allocation) that
   depends on nothing but the method, the config and the platform, and the
   shared [emit] tail that binds the result to one VM. *)

type tier = Baseline | O1 | Optimized

type compiled = {
  tier : tier;
  code : Ir.methd;
  flat : Lower.code;          (* lowered stream the flat interpreter runs *)
  addr : int;
  code_bytes : int;
  bytes_per_instr : int;
  block_offsets : int array;  (* instr-index offset of each block *)
  quality : int;              (* per-instruction cost multiplier *)
  block_spill_cost : int;     (* cycles per executed block for spill traffic *)
  spills : int;               (* intervals spilled by the register allocator *)
}

let block_offsets m =
  let n = Array.length m.Ir.blocks in
  let offsets = Array.make n 0 in
  let acc = ref 0 in
  for bi = 0 to n - 1 do
    offsets.(bi) <- !acc;
    acc := !acc + Array.length m.Ir.blocks.(bi).Ir.instrs + 1
  done;
  offsets

(* The emit tail every tier shares: reserve code space, then lower against
   the VM's profile.  Everything that depends on the VM instance (the
   code-space address, hence the I-cache tags, and the interned profile site
   ids) happens here and only here, which is what lets the optimizing tier's
   front half be cached across VMs. *)
let emit (plat : Platform.t) codespace ~profile ~owner ~tier ~expansion ~quality
    ~block_spill_cost ~spills code =
  let code_bytes = Size.code_bytes ~expansion code in
  let addr = Codespace.alloc codespace code_bytes in
  let instrs = max 1 (Ir.instr_count code) in
  let bytes_per_instr = max 1 (code_bytes / instrs) in
  {
    tier;
    code;
    flat =
      Lower.lower ~plat ~profile ~owner ~quality ~addr ~bytes_per_instr ~spill:block_spill_cost
        code;
    addr;
    code_bytes;
    bytes_per_instr;
    block_offsets = block_offsets code;
    quality;
    block_spill_cost;
    spills;
  }

(* Baseline code keeps everything in memory anyway (its quality multiplier
   already reflects that), so no extra spill surcharge. *)
let baseline (plat : Platform.t) codespace ~profile m =
  let c =
    emit plat codespace ~profile ~owner:m.Ir.mid ~tier:Baseline
      ~expansion:plat.Platform.baseline_expansion ~quality:plat.Platform.baseline_quality
      ~block_spill_cost:0 ~spills:0 m
  in
  (c, Platform.baseline_compile_cycles plat ~size:(Size.of_method m))

(* The mid tier: dataflow optimizations without inlining — cheap linear
   compile time, decent code.  Used by the multi-level ladder scenario. *)
let o1 (plat : Platform.t) codespace program ~profile m =
  let code, _stats = Pipeline.run program Pipeline.no_inline_config m in
  let ra = Regalloc.run ~phys_regs:plat.Platform.phys_regs code in
  let c =
    emit plat codespace ~profile ~owner:m.Ir.mid ~tier:O1 ~expansion:plat.Platform.o1_expansion
      ~quality:plat.Platform.o1_quality
      ~block_spill_cost:(Regalloc.block_spill_cost plat code ra)
      ~spills:ra.Regalloc.spilled code
  in
  (c, Platform.o1_compile_cycles plat ~size:(Size.of_method m))

type opt_front = {
  o_code : Ir.methd;
  o_stats : Pipeline.stats;
  o_block_spill_cost : int;
  o_spills : int;
}

let optimizing_front (plat : Platform.t) program config m =
  let code, stats = Pipeline.run program config m in
  let ra = Regalloc.run ~phys_regs:plat.Platform.phys_regs code in
  {
    o_code = code;
    o_stats = stats;
    o_block_spill_cost = Regalloc.block_spill_cost plat code ra;
    o_spills = ra.Regalloc.spilled;
  }

let optimizing_emit (plat : Platform.t) codespace ~profile ~owner f =
  let c =
    emit plat codespace ~profile ~owner ~tier:Optimized ~expansion:plat.Platform.opt_expansion
      ~quality:1 ~block_spill_cost:f.o_block_spill_cost ~spills:f.o_spills f.o_code
  in
  (c, Platform.opt_compile_cycles plat ~size_peak:f.o_stats.Pipeline.size_peak, f.o_stats)

let optimizing plat codespace program config ~profile m =
  optimizing_emit plat codespace ~profile ~owner:m.Ir.mid (optimizing_front plat program config m)
