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
  mutable precomputed : (Ir.methd * Pipeline.stats) list;
      (** pipeline outputs still to hand to optimizing compiles, in order *)
  record : (recompile -> unit) option;  (** called once per optimizing compile *)
}

(** One optimizing compile as the trajectory cache stores it.  [node] is
    [[| mid; total_calls; e0; e1; ... |]]: the compiled method, the
    profile's {!Profile.total_calls} (a full int) and the
    {!Profile.owned_edges} restricted to {!reach}[ mid], one
    {!Packed_edge} per pair in increasing key order, at the moment of the
    compile.  [node] is [None] when a key or count is outside the
    packed range: that compile cannot be stored, and neither can any path
    through it.  [output] is what the pipeline produced. *)
and recompile = { node : int array option; output : Ir.methd * Pipeline.stats }

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
    reference interpreter; raises [Invalid_argument] on a length mismatch.

    [precomputed] hands over {!Inltune_opt.Pipeline.run} outputs: the
    first optimizing compiles consume them in order instead of running the
    pipeline (register allocation and emission still run), and the caller
    vouches that each equals what the pipeline would return at that
    compile; a compile of another method than the next output's raises
    [Invalid_argument].  [record] is called with the {!recompile} of every
    later optimizing compile, the ones that run the pipeline, in order. *)
val create :
  ?code_keys:string array ->
  ?precomputed:(Ir.methd * Pipeline.stats) list ->
  ?record:(recompile -> unit) ->
  config ->
  Platform.t ->
  Ir.program ->
  t

(** The plan every optimizing compile under [config] runs: [config]'s
    plan with the [inline_enabled] and [optimize] ablations applied. *)
val optimizing_plan : config -> Plan.t

(** The optimizing tier's pipeline configuration under [config] on this
    platform, with [decider] deciding and every profile read — the
    hot-site test, the guarded-devirtualization oracle and the hot-path
    strategy's view — answered by the one window.  A VM passes a window
    onto its live profile; {!node_view} rebuilds one from a stored node.
    [Opt] reads no profile. *)
val pipeline_config :
  config -> Platform.t -> Facts.t -> Decider.t -> Hotpath.view -> Pipeline.config

(** One recorded (edge key, count) pair in one int, [key lsl 31 lor
    count]: the only code that knows the layout.  Packed edges sorted by
    key are sorted as ints. *)
module Packed_edge : sig
  (** The packed pair, or [None] when [key] or [count] is outside
      \[0, 2{^31}). *)
  val pack : key:int -> count:int -> int option

  val key : int -> int
  val count : int -> int

  (** Tests only: [with_limit n f] runs [f] with the range {!pack} accepts
      lowered to \[0, n), so a simulation's edges can be made unpackable
      without 2{^31} calls.  The layout does not change. *)
  val with_limit : int -> (unit -> 'a) -> 'a
end

(** [reach facts mid]: one byte per method id, nonzero for [mid] and every
    method it reaches through static calls and through every class's
    vtable entry at a virtual call's slot (over the original bodies).  An
    optimizing compile of [mid] only queries edges whose owner is in it.
    Built once per program ({!Inltune_jir.Facts} key ["reach"]). *)
val reach : Facts.t -> Ir.mid -> Bytes.t

(** Raised by a {!node_view} window asked about an edge whose owner is
    outside the node's reach. *)
exception Outside_reach of { mid : Ir.mid; site_owner : Ir.mid }

(** The window a stored {!recompile} node answers: the recorded total and
    edge counts (0 for an unrecorded edge of a reached owner, found by
    binary search over the packed keys), and {!Outside_reach} for an edge
    whose owner the node does not cover. *)
val node_view : Facts.t -> int array -> Hotpath.view

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
