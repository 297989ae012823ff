open Inltune_jir
(** First-class inlining policies: the interface the inliner consults at
    every call site.

    A policy maps a {!site} (everything the inliner knows at the moment a
    call is considered) to a {!verdict}.  The paper's Fig. 3/4 threshold
    heuristic is one implementation ({!of_heuristic}); learned policies
    (e.g. decision trees over call-site features, see [lib/policy]) are
    another; {!of_custom} wraps the bare decision closures used by the
    knapsack baseline. *)

(** What the inliner knows when it decides one call site. *)
type site = {
  owner : Ir.mid;        (** method whose source body holds the call site *)
  callee : Ir.mid;
  callee_size : int;     (** static size estimate of the callee's body *)
  inline_depth : int;    (** depth of the inline chain; direct calls are 1 *)
  caller_size : int;     (** expanded size of the caller so far *)
  hot : bool;            (** profile classified the site as hot (Fig. 4 path) *)
}

(** A decision plus the name of the rule that made it — the vocabulary
    trace events and summaries report (e.g. ["callee_too_big"],
    ["tree_accept"]). *)
type verdict = {
  accept : bool;
  rule : string;
}

type t = {
  name : string;              (** policy family, e.g. ["heuristic"], ["tree"] *)
  decide : site -> verdict;   (** must be pure and deterministic *)
}

(** The paper's decision procedure: hot sites take the single Fig. 4 test,
    all others the Fig. 3 sequence.  Rule names are exactly
    {!Heuristic.outcome_name} / {!Heuristic.hot_outcome_name}. *)
val of_heuristic : Heuristic.t -> t

(** Wrap a bare accept/reject closure; rules are ["custom_accept"] /
    ["custom_reject"]. *)
val of_custom :
  (site_owner:Ir.mid ->
  callee:Ir.mid ->
  callee_size:int ->
  inline_depth:int ->
  caller_size:int ->
  bool) ->
  t

(** [of_predicate ~name ~accept_rule ~reject_rule f] lifts a pure site
    predicate to a policy whose verdicts carry the given rule strings —
    the seam evolved GP predicates decode through. *)
val of_predicate :
  name:string -> accept_rule:string -> reject_rule:string -> (site -> bool) -> t
