open Inltune_jir
(** The single inlining-decision variant consulted by the inline pass,
    replacing the three overlapping config fields the pipeline used to
    thread (heuristic / policy option / custom closure). *)

type site_decision =
  site_owner:Ir.mid ->
  callee:Ir.mid ->
  callee_size:int ->
  inline_depth:int ->
  caller_size:int ->
  bool

type t =
  | Heuristic of Heuristic.t
      (** the paper's Fig. 3/4 threshold procedure *)
  | Policy of Policy.t
      (** first-class policy replacing the heuristic (e.g. a learned tree) *)
  | Custom of site_decision
      (** bare decision closure (e.g. the knapsack baseline); ignores the
          hot-site classifier *)
