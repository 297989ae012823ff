open Inltune_jir

(* The single inlining-decision variant.  The pipeline used to thread three
   overlapping config fields (heuristic / policy option / custom closure)
   whose precedence lived in the inline-pass dispatch; the variant makes the
   choice a value, so a config holds exactly one decider and the pass match
   is total. *)

type site_decision =
  site_owner:Ir.mid ->
  callee:Ir.mid ->
  callee_size:int ->
  inline_depth:int ->
  caller_size:int ->
  bool

type t =
  | Heuristic of Heuristic.t  (* the paper's Fig. 3/4 threshold procedure *)
  | Policy of Policy.t        (* first-class policy, e.g. a learned tree *)
  | Custom of site_decision   (* bare closure, e.g. the knapsack baseline *)
