open Inltune_jir
open Inltune_opt

(* The compiler tiers.

   Baseline: no transformation at all (bytecode is executed as-is) but the
   code runs with a quality penalty and occupies more space — fast to
   compile, slow to run, exactly Jikes RVM's non-optimizing compiler.
   Since its code is the method itself, a baseline compile's whole
   VM-independent half (a [template]) is built once per program and
   platform, kept in the program's fact table, and instantiated by every
   VM ([baseline_table]).

   Optimizing: runs the full [Pipeline] (devirtualize, inline under the
   heuristic, fold, DCE) and charges compile cycles that grow superlinearly
   with the post-inlining IR size, which is what makes CALLER_MAX_SIZE = 2048
   "overly aggressive" on compile-heavy workloads, as the paper observes.
   It is split in two: a front (pipeline + register allocation) that
   depends on nothing but the method, the config and the platform, and the
   emit tail every tier shares: a [template], then [instantiate], which
   binds it to one VM. *)

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

(* Everything a compile produces that does not depend on the VM: the
   compiled record but for its address and lowered stream, the stream as a
   template, and the compile cycles. *)
type template = {
  proto : compiled;  (* [addr] 0, [flat] a placeholder *)
  lowered : Lower.template;
  cycles : int;      (* compile cycles charged per instantiation *)
}

(* [size] is the code's size estimate, which every caller already has. *)
let template (plat : Platform.t) ~tier ~expansion ~quality ~block_spill_cost ~spills ~cycles ~size
    code =
  let code_bytes = size * expansion in
  let instrs = max 1 (Ir.instr_count code) in
  let bytes_per_instr = max 1 (code_bytes / instrs) in
  {
    proto =
      {
        tier;
        code;
        flat = Lower.dummy;
        addr = 0;
        code_bytes;
        bytes_per_instr;
        block_offsets = block_offsets code;
        quality;
        block_spill_cost;
        spills;
      };
    lowered = Lower.template ~plat ~quality ~bytes_per_instr ~spill:block_spill_cost code;
    cycles;
  }

(* The emit tail every tier shares: reserve code space, then bind the
   lowered template to the VM's profile.  Everything that depends on the VM
   instance (the code-space address, hence the I-cache tags, and the
   interned profile site ids) happens here and only here, which is what
   lets the optimizing tier's front half be cached across VMs and the
   baseline tier's whole template be shared by them. *)
let instantiate codespace ~profile ~owner t =
  let addr = Codespace.alloc codespace t.proto.code_bytes in
  ({ t.proto with addr; flat = Lower.instantiate t.lowered ~profile ~owner ~addr }, t.cycles)

(* Baseline code keeps everything in memory anyway (its quality multiplier
   already reflects that), so no extra spill surcharge.  The baseline tier
   installs the method itself, so its template is a function of the method
   and the platform alone. *)
let baseline_template (plat : Platform.t) m =
  let size = Size.of_method m in
  template plat ~tier:Baseline ~expansion:plat.Platform.baseline_expansion
    ~quality:plat.Platform.baseline_quality ~block_spill_cost:0 ~spills:0
    ~cycles:(Platform.baseline_compile_cycles plat ~size)
    ~size m

let baseline_of_template codespace ~profile t =
  instantiate codespace ~profile ~owner:t.proto.code.Ir.mid t

let baseline plat codespace ~profile m =
  baseline_of_template codespace ~profile (baseline_template plat m)

(* The per-program baseline table: one slot array per platform, matched by
   the platform record itself (the templates bake its costs in), in the
   program's fact-table entry, so it lives exactly as long as the
   program. *)
type baseline_slots = { plat : Platform.t; slots : template option array }

let baseline_key = Facts.key ~name:"baseline_templates" (fun _ -> Atomic.make [])

let baseline_table (plat : Platform.t) facts =
  let per = Facts.get facts baseline_key in
  let rec find_or_add () =
    let known = Atomic.get per in
    match List.find_opt (fun b -> b.plat == plat || b.plat = plat) known with
    | Some b -> b.slots
    | None ->
      let slots = Array.make (Array.length (Facts.program facts).Ir.methods) None in
      if Atomic.compare_and_set per known ({ plat; slots } :: known) then slots
      else find_or_add ()
  in
  find_or_add ()

(* The mid tier: dataflow optimizations without inlining — cheap linear
   compile time, decent code.  Used by the multi-level ladder scenario. *)
let o1 (plat : Platform.t) codespace ?facts program ~profile m =
  let code, stats = Pipeline.run program { Pipeline.no_inline_config with facts } m in
  let ra = Regalloc.run ~phys_regs:plat.Platform.phys_regs code in
  instantiate codespace ~profile ~owner:m.Ir.mid
    (template plat ~tier:O1 ~expansion:plat.Platform.o1_expansion
       ~quality:plat.Platform.o1_quality
       ~block_spill_cost:(Regalloc.block_spill_cost plat code ra)
       ~spills:ra.Regalloc.spilled
       ~cycles:(Platform.o1_compile_cycles plat ~size:stats.Pipeline.size_before)
       ~size:stats.Pipeline.size_after code)

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
  let c, cycles =
    instantiate codespace ~profile ~owner
      (template plat ~tier:Optimized ~expansion:plat.Platform.opt_expansion ~quality:1
         ~block_spill_cost:f.o_block_spill_cost ~spills:f.o_spills
         ~cycles:(Platform.opt_compile_cycles plat ~size_peak:f.o_stats.Pipeline.size_peak)
         ~size:f.o_stats.Pipeline.size_after f.o_code)
  in
  (c, cycles, f.o_stats)

let optimizing plat codespace program config ~profile m =
  optimizing_emit plat codespace ~profile ~owner:m.Ir.mid (optimizing_front plat program config m)
