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

(** Optimizations on, inlining decided by a first-class {!Policy.t}. *)
val policy_config :
  ?hot_site:(site_owner:Ir.mid -> callee:Ir.mid -> bool) -> Policy.t -> config

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
    Semantics-preserving. *)
val run : Ir.program -> config -> Ir.methd -> Ir.methd * stats

(** Like {!run}, also returning one [(pass name, delta)] per executed plan
    item, in execution order.  The field-wise sum of the deltas equals the
    returned totals exactly (tests assert this). *)
val run_detailed :
  Ir.program -> config -> Ir.methd -> Ir.methd * stats * (string * Pass.delta) list
