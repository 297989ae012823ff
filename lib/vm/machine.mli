open Inltune_jir
open Inltune_opt

(** The virtual machine: a cycle-counting interpreter over compiled JIR plus
    the adaptive optimization system.  See the implementation header for the
    cycle-accounting rules. *)

(** Memory-safety or dispatch violation during interpretation. *)
exception Trap of string

(** The per-iteration step budget ran out. *)
exception Out_of_fuel

(** Select the tree-walking reference interpreter instead of the flat
    dispatch loop (also settable via [INLTUNE_VM_REFERENCE=1] in the
    environment).  Both interpreters are bit-identical on every observable:
    cycles, steps, out_hash, outputs, profile state, recompilation points. *)
val set_reference : bool -> unit

val reference_enabled : unit -> bool

type scenario =
  | Opt     (** optimize every method on first invocation *)
  | Adapt   (** baseline first; hot methods promoted to the optimizer *)
  | Ladder  (** extension: staged baseline -> O1 -> O2 recompilation *)

val scenario_name : scenario -> string

type config = {
  scenario : scenario;
  heuristic : Heuristic.t;
  inline_enabled : bool;          (** false = the Fig. 1 no-inlining baseline *)
  optimize : bool;                (** false = ablation: no dataflow passes *)
  icache_enabled : bool;          (** false = ablation: no bloat penalty *)
  hot_path_enabled : bool;        (** false = ablation: no Fig. 4 hot path *)
  guarded_devirt_enabled : bool;  (** false = ablation: no PIC guards *)
  custom_inliner : Pipeline.site_decision option;
      (** per-site decision override (e.g. the knapsack oracle) *)
  policy_factory : (Profile.t -> Policy.t) option;
      (** first-class inlining policy, rebuilt against the VM's live profile
          at each (re)compile so feature-driven policies see current
          call-edge hotness; [custom_inliner] wins if both are set *)
  plan : Plan.t;
      (** optimizing-tier pass schedule (default {!Plan.default}); the
          [inline_enabled] / [optimize] ablations apply on top as plan
          edits at each compile *)
  fuel : int;                     (** interpreter step budget per iteration *)
}

(** Build a configuration; every optional defaults to the paper's setup. *)
val config :
  ?inline_enabled:bool ->
  ?optimize:bool ->
  ?icache_enabled:bool ->
  ?hot_path_enabled:bool ->
  ?guarded_devirt_enabled:bool ->
  ?custom_inliner:Pipeline.site_decision ->
  ?policy_factory:(Profile.t -> Policy.t) ->
  ?plan:Plan.t ->
  ?fuel:int ->
  scenario ->
  Heuristic.t ->
  config

type t = {
  prog : Ir.program;
  facts : Facts.t;  (** [prog]'s {!Inltune_jir.Facts} entry, looked up in {!create} *)
  plat : Platform.t;
  cfg : config;
  icache : Icache.t;
  codespace : Codespace.t;
  compiled : Compile.compiled option array;
  profile : Profile.t;
  mutable heap : int array;
  mutable heap_len : int;
  mutable exec_cycles : int;
  mutable compile_cycles : int;
  mutable steps : int;
  mutable fuel_left : int;
  mutable next_sample_at : int;
  mutable out_hash : int;
  outputs : int Inltune_support.Vec.t;
  mutable opt_compiles : int;
  mutable o1_compiles : int;
  mutable baseline_compiles : int;
  mutable call_depth : int;
  frames : Lower.code Inltune_support.Frames.t;
      (** reusable register windows for the flat interpreter *)
  mutable frames_reused : int;
      (** frame pushes served without growing the pool; flushed to the
          [vm.frames_reused] counter once per iteration *)
  mutable compile_wall_s : float;
      (** wall seconds inside the compilers, accumulated only while
          {!Inltune_obs.Prof} is enabled; profiler bookkeeping, never part
          of cycle accounting *)
  code_keys : string array option;
      (** per-method {!Codecache} keys, indexed by method id *)
  baseline_slots : Compile.template option array;
      (** the program's {!Compile.baseline_table} for this platform, looked
          up once at {!create} (empty under [Opt]) *)
  mutable templates_built : int;
  mutable templates_reused : int;
      (** baseline compiles that built their template, and that found it
          in the table; flushed to the [vm.baseline_templates.built] and
          [.reused] counters once per iteration *)
}

(** Simulated call-stack depth limit (exceeding it is a {!Trap}). *)
val max_call_depth : int

(** Fresh VM over a validated program; raises on an ill-formed program.
    Looks the program up in the fact table once ({!Inltune_jir.Facts}):
    validation runs once per program value, and every compile this VM
    makes reads the table's facts without another lookup.  [code_keys]
    (one per method, indexed by method id) lets the [Opt]
    scenario's compiles reuse fronts from {!Codecache.global}: the caller
    vouches that each key determines its method's {!Compile.opt_front} under
    this config and platform.  Ignored by the other scenarios and by the
    reference interpreter; raises [Invalid_argument] on a length mismatch. *)
val create : ?code_keys:string array -> config -> Platform.t -> Ir.program -> t

(** Run [callee] with the given arguments inside the VM (compiling lazily as
    the scenario dictates).  Exposed for tests; normal use is
    {!run_iteration}. *)
val exec : t -> Ir.mid -> int array -> int

type iteration = {
  ret : int;
  it_exec_cycles : int;
  it_compile_cycles : int;
  it_steps : int;
  it_out_hash : int;
  it_outputs : int array;
}

(** One run of [main].  Compiled code, profile, and I-cache state persist
    across iterations (the warming VM); the heap and the output log are
    fresh per iteration. *)
val run_iteration : t -> iteration

(** Emit the ["vm.iteration"] trace event {!run_iteration} emits, for an
    iteration with these figures; [derived] (default false) marks one whose
    figures were derived rather than executed and adds ["derived": true]. *)
val trace_iteration :
  ?derived:bool -> t -> exec_cycles:int -> compile_cycles:int -> steps:int -> unit

val opt_compiles : t -> int
val o1_compiles : t -> int
val baseline_compiles : t -> int
val code_bytes : t -> int
val icache_misses : t -> int
val icache_accesses : t -> int
val profile : t -> Profile.t
val compiled_method : t -> Ir.mid -> Compile.compiled option
