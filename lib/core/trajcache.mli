open Inltune_jir
open Inltune_opt
open Inltune_vm

(** Recompile-trajectory cache: exact measurements for the [Adapt] and
    [Ladder] scenarios, shared across plans and deciders.

    One trie per (program digest, scenario, platform, iterations, fuel,
    I-cache flag).  A node is one optimizing recompile — the method id and
    the profile window the optimizer reads ({!Inltune_vm.Machine.recompile});
    an edge is the digest of what that recompile produced
    ({!output_digest}); a leaf is the finished
    measurement.  A lookup runs only {!Inltune_opt.Pipeline.run} at each
    node, for its own plan and decider against the stored window, and
    follows the matching edge: a leaf is the measurement a fresh simulation
    would return (the implementation header carries the induction).

    The caller ({!Measure.run_decider}) consults it after a fitness-cache
    miss, for deciders that read no live profile, under [Adapt]/[Ladder]
    on the flat interpreter.  {!Fitcache.clear} empties it.  It grows to
    {!budget_bytes} and then stops growing until the next {!clear}.
    Counters: ["fitness.traj_hits"], ["fitness.traj_misses"], and the nodes
    and bytes each insert adds, ["fitness.traj_nodes"] and
    ["fitness.traj_bytes"]. *)

(** The fixed memory budget: 512 KiB. *)
val budget_bytes : int

(** A lookup that fell off the trie: where, and the pipeline outputs the
    walk computed, one per node passed, in order. *)
type miss

type outcome = Hit of Runner.measurement | Miss of miss

(** [find config platform ~iterations ~decider program] walks the query's
    trie, running the pipeline under [config]'s plan with [decider]
    deciding.  The caller vouches that [decider] is the decider every
    optimizing compile of a VM under [config] would build, and that it
    reads no live profile.  Exceptions from the pipeline, and
    {!Inltune_vm.Machine.Outside_reach} from a window asked about an edge
    its node does not cover, propagate. *)
val find :
  Machine.config -> Platform.t -> iterations:int -> decider:Decider.t -> Ir.program -> outcome

(** The outputs to hand to the miss's simulation
    ([Runner.measure ~precomputed]). *)
val outputs : miss -> (Ir.methd * Pipeline.stats) list

(** [insert miss recorded m] stores the simulated path: [recorded] is what
    [Runner.measure ~precomputed:(outputs miss) ~record] recorded — every
    {!Inltune_vm.Machine.recompile} past the walked prefix, in order — and
    [m] its measurement.  Nothing is stored past the budget, or if
    {!clear} ran since the lookup. *)
val insert : miss -> Machine.recompile list -> Runner.measurement -> unit

(** The edge digest of a pipeline output, as two ints of an MD5: its
    method, [size_peak] (which fixes the compile cycles) and [size_after]
    (which fixes the code bytes) — everything of a recompile the rest of a
    run depends on. *)
val output_digest : Ir.methd * Pipeline.stats -> int * int

(** Forget every trie. *)
val clear : unit -> unit

(** Nodes and bytes currently held. *)
val nodes : unit -> int

val bytes : unit -> int
