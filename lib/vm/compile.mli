open Inltune_jir
open Inltune_opt

(** The compiler tiers: the fast non-optimizing baseline compiler, the
    inlining-free mid tier, and the optimizing compiler that runs the full
    {!Inltune_opt.Pipeline}.  Every tier ends in one shared emit tail: a
    VM-independent {!template} (code size and layout, {!Lower.template}),
    then its instantiation in one VM (code-space allocation, then
    {!Lower.instantiate}).  The baseline tier's code is the method itself,
    so its template is built once per program and platform
    ({!baseline_table}, in the program's {!Inltune_jir.Facts} entry) and
    shared by every VM. *)

type tier = Baseline | O1 | Optimized

type compiled = {
  tier : tier;
  code : Ir.methd;            (** the code the interpreter executes *)
  flat : Lower.code;          (** lowered stream the flat interpreter runs *)
  addr : int;                 (** code-space address (I-cache tag base) *)
  code_bytes : int;
  bytes_per_instr : int;
  block_offsets : int array;  (** instruction-index offset of each block *)
  quality : int;              (** per-instruction cost multiplier *)
  block_spill_cost : int;     (** cycles per executed block (spill traffic) *)
  spills : int;               (** intervals spilled by the register allocator *)
}

(** Compile with the baseline tier: no transformation, cheap compile cycles,
    slow bulky code.  Returns the compiled method and compile cycles.
    Exactly [baseline_of_template] of [baseline_template]. *)
val baseline : Platform.t -> Codespace.t -> profile:Profile.t -> Ir.methd -> compiled * int

(** A compile's VM-independent half: the installed code, its code size,
    bytes per instruction and block offsets, the lowered {!Lower.template},
    and the compile cycles it charges.  Immutable; shareable across VMs and
    domains. *)
type template

(** The baseline tier's template for a method: a function of the method
    and the platform alone. *)
val baseline_template : Platform.t -> Ir.methd -> template

(** [baseline_of_template cs ~profile t] allocates [t]'s code in [cs] and
    instantiates its lowered stream against [profile], attributing call
    sites to the method itself.  Returns what {!baseline} returns. *)
val baseline_of_template : Codespace.t -> profile:Profile.t -> template -> compiled * int

(** [baseline_table plat facts] is the program's baseline template table
    for [plat]: one slot per method id, [None] until some VM fills it with
    [Some (baseline_template plat m)].  It lives in the program's
    {!Inltune_jir.Facts} entry, so it lives as long as the program (the
    fact table keeps one program per hash, so two live, structurally equal
    programs looked up in turn each rebuild their templates); platforms are
    compared structurally.  Two domains may race to fill a slot; they build
    equal templates, and either write wins. *)
val baseline_table : Platform.t -> Facts.t -> template option array

(** Compile with the mid tier: dataflow passes, no inlining; linear compile
    cost, intermediate code quality.  Used by the ladder scenario.  [facts]
    is the program's fact-table entry (see {!Inltune_opt.Pipeline.config}). *)
val o1 :
  Platform.t -> Codespace.t -> ?facts:Facts.t -> Ir.program -> profile:Profile.t -> Ir.methd ->
  compiled * int

(** Compile with the optimizing tier: runs the pipeline under [config] and
    charges compile cycles superlinear in the post-inlining size.  Returns
    the compiled method, compile cycles, and the pipeline statistics.
    Exactly [optimizing_emit] of [optimizing_front]. *)
val optimizing :
  Platform.t -> Codespace.t -> Ir.program -> Pipeline.config -> profile:Profile.t ->
  Ir.methd -> compiled * int * Pipeline.stats

(** The optimizing tier's VM-independent half: the post-pipeline code, the
    pipeline statistics, and the register allocator's spill figures.  A
    function of the method, the pipeline config and the platform alone, so
    it can be cached across VMs ({!Codecache}). *)
type opt_front = {
  o_code : Ir.methd;
  o_stats : Pipeline.stats;
  o_block_spill_cost : int;  (** cycles per executed block (spill traffic) *)
  o_spills : int;            (** intervals spilled by the register allocator *)
}

(** Pipeline plus register allocation. *)
val optimizing_front : Platform.t -> Ir.program -> Pipeline.config -> Ir.methd -> opt_front

(** Register allocation of a {!Inltune_opt.Pipeline.run} result:
    [optimizing_front plat program config m] is
    [front_of_pipeline plat (Pipeline.run program config m)]. *)
val front_of_pipeline : Platform.t -> Ir.methd * Pipeline.stats -> opt_front

(** The emit tail: allocates the front's code in the code space and lowers
    it against [profile], attributing call sites to method [owner].
    Returns what {!optimizing} returns; the compile cycles derive from the
    front's statistics. *)
val optimizing_emit :
  Platform.t -> Codespace.t -> profile:Profile.t -> owner:Ir.mid -> opt_front ->
  compiled * int * Pipeline.stats
