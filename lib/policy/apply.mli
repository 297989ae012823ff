open Inltune_opt
open Inltune_vm

(** Turning a stored policy into the inliner's {!Policy.t} interface. *)

(** A {!Policy.t} for one compilation: threshold policies replay the Fig. 3/4
    procedure verbatim (identical rule strings, so traces look the same);
    tree policies extract features with [ctx] (the given profile attached, if
    any) and answer with ["tree_accept"]/["tree_reject"] rules. *)
val policy : ctx:Features.ctx -> ?profile:Profile.t -> Store.t -> Policy.t

(** A {!Machine.config}-ready factory over a precomputed feature context:
    invoked per (re)compile so tree features see the live profile. *)
val factory : ctx:Features.ctx -> Store.t -> Profile.t -> Policy.t

(** The store as a measurement decider ({!Inltune_core.Measure.run_decider}):
    a threshold store is [Heuristic], a tree is [Profiled] by {!factory} and
    keyed by the store's content digest. *)
val decider : Store.t -> Inltune_core.Fitcache.decider
