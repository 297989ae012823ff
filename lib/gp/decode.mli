(** Tree genome → {!Inltune_opt.Policy.t}: how evolved predicates reach the
    unchanged inliner, pipeline, and VM.

    Decoding is static — the feature context carries no live profile — so
    decisions are a pure function of the program and the site record.  That
    keeps runs reproducible across scenarios and lets the fitness cache key
    Opt measurements by the exact decision walk ({!decider} is a
    [Fitcache.Static] decider), under which structurally different trees
    making identical decisions share one simulation and its compiles. *)

module Features = Inltune_policy.Features
module Policy = Inltune_opt.Policy

(** Pure site predicate as a policy; verdicts carry rules ["gp_accept"] /
    ["gp_reject"] under family name ["gp"]. *)
val policy : ctx:Features.ctx -> Tree.t -> Policy.t

(** Profile-ignoring policy factory for [Machine.config]. *)
val factory : ctx:Features.ctx -> Tree.t -> Inltune_vm.Profile.t -> Policy.t

(** The tree as a measurement decider ({!Inltune_core.Measure.run_decider}):
    [Static], with {!policy} over the program's feature context, keyed by
    {!Tree.digest} wherever no exact walk applies. *)
val decider : Tree.t -> Inltune_core.Fitcache.decider

(** Fraction of flip-oracle examples ({!Inltune_policy.Dataset.to_training})
    the tree labels correctly; [1.0] on empty data.  The evolver's
    pre-filter surrogate. *)
val agreement : (float array * bool) array -> Tree.t -> float
