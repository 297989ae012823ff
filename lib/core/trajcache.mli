open Inltune_jir
open Inltune_opt
open Inltune_vm

(** Recompile-trajectory cache: exact measurements for the [Adapt] and
    [Ladder] scenarios, shared across plans and deciders.

    One trie per (program digest, scenario, platform, iterations, fuel,
    I-cache flag).  A node is one optimizing recompile — the method id and
    the profile window the optimizer reads ({!Inltune_vm.Machine.recompile});
    an edge is the digest of what that recompile produced
    ({!output_digest}); a leaf is the finished measurement.  A lookup
    computes each node's edge for its own plan and decider against the
    stored window and follows it: a leaf is the measurement a fresh
    simulation would return (the implementation header carries the
    induction).

    Computing an edge needs the method after the plan's last inliner-kind
    item.  When the plan's inliner items form one block
    ({!Inltune_opt.Pipeline.inliner_span}), a walk runs only the items
    before the block, and an inliner memo keyed on (program, input-method
    digest, effective accept bits) gives each engine run's output digest,
    size and root call-site table from a decision walk
    ({!Inltune_opt.Engine.walk_from}), so a node whose every inliner the
    memo answers builds no IR past the prefix.  A miss runs the block for
    real once, adding an entry per engine run that accepted a site.  Other
    plans run through the last inliner for real.  When every enabled item
    after it is context-free
    ({!Inltune_opt.Pipeline.context_free_suffix}), a suffix memo keyed on
    (program, input-method digest, canonical item text) gives each later
    item's output digest and size, and a node whose every item the memo
    answers runs no payoff pass.  A suffix-memo miss runs the rest of the
    plan once, adding an entry per item.

    The caller ({!Measure.run_decider}) consults it after a fitness-cache
    miss, for deciders that read no live profile, under [Adapt]/[Ladder]
    on the flat interpreter.  {!Fitcache.clear} empties it.

    The tries hold at most {!budget_bytes}.  Each root — one trie — has a
    last-walk stamp, which {!find} sets, and a generation drawn from a
    counter that never resets.  An insert that does not fit evicts whole
    roots, least recently walked first, never the root it grows; one that
    would not fit even then is dropped.  The suffix memo holds at most
    {!memo_cap} entries and the inliner memo at most {!engine_cap}; each
    starts over empty when full.

    Counters: ["fitness.traj_hits"], ["fitness.traj_misses"], the nodes
    and bytes inserts admitted (["fitness.traj_nodes"],
    ["fitness.traj_bytes"]: once roots are evicted these exceed what is
    resident, which {!nodes} and {!bytes} report), roots evicted
    (["fitness.traj_evictions"], also the calls of the
    ["fitness.traj_evict"] profiler span), node visits the suffix memo
    served whole or not (["fitness.traj_chain_hits"],
    ["fitness.traj_chain_misses"]; a plan the memo cannot serve counts in
    neither) and its entries added (["fitness.traj_memo_entries"]), and
    the same three for the inliner memo: fronts derived whole
    (["fitness.traj_engine_hits"]), fronts whose block a miss ran for real
    (["fitness.traj_engine_misses"]) and entries added
    (["fitness.traj_engine_entries"]).  Profiler spans under
    ["fitness.trajectory"]: ["fitness.traj_engine"] (the items before the
    block, decision walks and inliner-memo lookups),
    ["fitness.traj_front"] (fronts that ran for real, only) and
    ["fitness.traj_chain"] (suffix-memo lookups and the items a miss
    runs). *)

(** The fixed memory budget of the tries: 512 KiB. *)
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
    ([Runner.measure ~precomputed]).  The first call completes each node
    a memo served by running only the items the walk did not run on the
    run it kept — those after the last inliner, or, for a derived front,
    those after the items before the inliner block — so with the walk no
    pipeline item runs twice for one node. *)
val outputs : miss -> (Ir.methd * Pipeline.stats) list

(** [insert miss recorded m] stores the simulated path: [recorded] is what
    [Runner.measure ~precomputed:(outputs miss) ~record] recorded — every
    {!Inltune_vm.Machine.recompile} past the walked prefix, in order — and
    [m] its measurement, evicting least recently walked roots to make
    room.  Nothing is stored when a recorded node is [None] (an edge out
    of the packed range), when the path would not fit the budget beside
    its own root, or when the miss's root was evicted, replaced or
    cleared since the lookup. *)
val insert : miss -> Machine.recompile list -> Runner.measurement -> unit

(** The edge digest of a pipeline output, as two ints of an MD5 of: two
    ints of an MD5 of its method, [size_peak] (which fixes the compile
    cycles) and [size_after] (which fixes the code bytes) — everything of a
    recompile the rest of a run depends on.  A walk computes the same
    value from the memo without the method. *)
val output_digest : Ir.methd * Pipeline.stats -> int * int

(** Forget every trie and the memo. *)
val clear : unit -> unit

(** Trie nodes and bytes resident now (at most {!budget_bytes}). *)
val nodes : unit -> int

val bytes : unit -> int

(** Tests only: [with_budget n f] runs [f] with the trie budget set to
    [n] bytes, evicting as needed, and restores the fixed budget after. *)
val with_budget : int -> (unit -> 'a) -> 'a

(** The memo's fixed cap: 3,072 entries, 40 bytes each plus an 8 KiB
    index.  A full memo empties itself before its next entry. *)
val memo_cap : int

(** Suffix-memo entries currently held. *)
val memo_entries : unit -> int

(** Heap bytes both memos hold now: the suffix memo and the inliner memo. *)
val memo_bytes : unit -> int

(** The inliner memo's fixed cap: 1,024 entries of five ints and a
    call-site table each, plus a 4 KiB index.  A full memo empties itself
    before its next entry. *)
val engine_cap : int

(** Inliner-memo entries and heap bytes (tables included) held now. *)
val engine_entries : unit -> int

val engine_bytes : unit -> int

(** [node_edge config platform ~decider program node]: the edge a walk
    computes at a stored [node] (a {!Inltune_vm.Machine.recompile} node of
    [program]) for a query under [config] with [decider], through the
    memos as a walk does (adding their entries on a miss).  It equals
    {!output_digest} of a whole {!Inltune_opt.Pipeline.run} at that node;
    the tests check this. *)
val node_edge :
  Machine.config -> Platform.t -> decider:Decider.t -> Ir.program -> int array -> int * int
