open Inltune_jir
(** The optimizing compiler's middle end: a thin interpreter over a
    {!Plan.t} schedule of {!Pass.t} instances.  The default plan reproduces
    the historical hard-coded order (devirtualization, decider-driven
    inlining, constant/copy propagation, CSE, DCE, CFG cleanup)
    bit-identically. *)

type site_decision = Decider.site_decision

type config = {
  decider : Decider.t;   (** who decides each inline site *)
  plan : Plan.t;         (** which passes run, in what order, how hard *)
  hot_site : (site_owner:Ir.mid -> callee:Ir.mid -> bool) option;
      (** adaptive scenario: which call sites are profile-hot *)
  devirt_oracle : Guarded_devirt.site_oracle option;
      (** adaptive scenario: guard-devirtualize monomorphic virtual sites *)
  profile : Hotpath.view option;
      (** adaptive scenario: live call-edge counts for the hot-path
          inlining strategy; [None] under [Opt] *)
  facts : Facts.t option;
      (** the compiled program's {!Inltune_jir.Facts} entry.  With it, a
          constprop run whose input is physically the program's own method
          is served from the table (no span, no [pass.constprop.*] counts;
          ["pipeline.constprop_reused"] counts these), [size_before] of an
          original method is the table's size, and the inliners skip their
          table lookup.  Results are identical either way. *)
}

(** The one constructor: [plan] defaults to {!Plan.default}. *)
val make :
  ?plan:Plan.t ->
  ?hot_site:(site_owner:Ir.mid -> callee:Ir.mid -> bool) ->
  ?devirt_oracle:Guarded_devirt.site_oracle ->
  ?profile:Hotpath.view ->
  ?facts:Facts.t ->
  Decider.t ->
  config

(** Standard optimizing configuration around a heuristic. *)
val opt_config : ?hot_site:(site_owner:Ir.mid -> callee:Ir.mid -> bool) -> Heuristic.t -> config

(** Optimizations on, inlining off (the paper's Fig. 1 baseline): the
    default plan with the inline item disabled. *)
val no_inline_config : config

(** Optimizations on, inlining decided per call site by [decide]. *)
val custom_config : site_decision -> config

type stats = {
  size_before : int;   (** size estimate of the input method *)
  size_peak : int;     (** size right after the last inliner-kind item
                           (compile-cost driver) *)
  size_after : int;    (** size of the emitted code (I-cache driver) *)
  sites_seen : int;
  sites_inlined : int;
  hot_sites_seen : int;
  hot_sites_inlined : int;
  sites_guarded : int;  (** virtual sites guard-devirtualized *)
  folded : int;
  devirtualized : int;
  cse_replaced : int;
  copies_propagated : int;
  dce_removed : int;
}

(** Optimize one method of [program] under the config's plan.
    Semantics-preserving and copy-on-write: neither the input method nor
    the program is modified, and the result may share structure with the
    input — it is the input itself when no item changed it (an inliner
    that accepts no site returns its input, {!Engine.run}). *)
val run : Ir.program -> config -> Ir.methd -> Ir.methd * stats

(** Like {!run}, also returning one [(pass name, delta)] per executed plan
    item, in execution order.  The field-wise sum of the deltas equals the
    returned totals exactly (tests assert this). *)
val run_detailed :
  Ir.program -> config -> Ir.methd -> Ir.methd * stats * (string * Pass.delta) list

(** {2 Item by item}

    {!run} is {!start}, then one step per plan item, then {!finish}, which
    builds the stats.  A caller may stop after any item, keep the
    {!partial} (it is immutable) and resume it later: the trajectory cache
    runs a plan through its last inliner-kind item, digests that method,
    and finishes only the runs its memo cannot answer for. *)

(** A run between plan items: the method after the items run so far. *)
type partial

val start : Ir.program -> config -> Ir.methd -> partial

(** [run_until p j]: run items up to, not including, item [j] (nothing
    when [p] is there or past it).  An enabled, applicable item runs its
    pass ("iters" times) and adds one delta; any other leaves the method
    as it is. *)
val run_until : partial -> int -> partial

(** Run the remaining items and build the result {!run_detailed}
    returns (and its ["opt.method"] trace event). *)
val finish : partial -> Ir.methd * stats * (string * Pass.delta) list

val current : partial -> Ir.methd

(** The recorded [size_peak]: final once the plan's last inliner-kind
    item has run (-1 before that in a plan with one). *)
val peak : partial -> int

(** [Some l] when the plan's last inliner-kind item is item [l] and every
    enabled item after it is {!Pass.t.context_free}: then a run's output
    is a function of the program, its method after item [l] and the items
    after [l] alone, and its [size_peak] is that method's size.  [None]
    for a plan without an inliner item, or with an item after the last
    inliner that reads the decider or the profile (today: a hand-written
    plan with [guarded_devirt] there). *)
val context_free_suffix : Plan.t -> int option

(** [Some (first, last)] when the plan's inliner-kind items run from item
    [first] to item [last] (enabled or not) and every enabled item between
    them is of inliner kind too: then the method after [last] is the
    method before [first] put through one {!Engine.run} per enabled,
    applicable item of the block, in order.  [None] for a plan without an
    inliner item or with another enabled pass inside the block. *)
val inliner_span : Plan.t -> (int * int) option

(** [engine_at p j ~root_size]: the engine run inliner-kind item [j] of
    [p]'s plan makes on a method of size [root_size] under [p]'s context,
    knobs and facts ({!Pass.t.engine}) — what {!run_until} would run —
    or [None] when the item is disabled, inapplicable or makes none.
    Raises [Invalid_argument] for an enabled item of another kind. *)
val engine_at : partial -> int -> root_size:int -> Pass.engine_run option
