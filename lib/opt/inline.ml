open Inltune_jir
(* Method inlining, as thin strategy-free wrappers over the shared
   {!Engine}.  Historically this module owned the whole transformation; the
   splice machinery now lives in [engine.ml] so alternative strategies
   (small-leaf, hot-path, region — see [leaves.ml] / [hotpath.ml] /
   [region.ml]) drive the identical code path through their own policies.
   [run] closes over the paper's Fig. 3/4 heuristic procedure, [run_policy]
   accepts any first-class {!Policy.t}, and [run_custom] wraps a bare
   decision closure.  The decision-only walk is {!Engine.walk}. *)

type stats = Engine.stats = {
  mutable sites_seen : int;
  mutable sites_inlined : int;
  mutable hot_sites_seen : int;
  mutable hot_sites_inlined : int;
}

type reason = Engine.reason =
  | Rule of Policy.verdict
  | Recursive
  | Space_cap

let reason_name = Engine.reason_name

type decision = Engine.decision = {
  d_site_owner : Ir.mid;
  d_callee : Ir.mid;
  d_callee_size : int;
  d_depth : int;
  d_caller_size : int;
  d_reason : reason;
}

let decision_accepts = Engine.decision_accepts
let max_expanded_size = Engine.max_expanded_size

let run_policy ?hot_site ?decisions ?facts ~program ~policy m =
  Engine.run ?hot_site ?decisions ?facts ~program ~policy m

let run ?hot_site ?decisions ?facts ~program ~heuristic m =
  Engine.run ?hot_site ?decisions ?facts ~program ~policy:(Policy.of_heuristic heuristic) m

let run_custom ?decisions ?facts ~decide ~program m =
  Engine.run ?decisions ?facts ~program ~policy:(Policy.of_custom decide) m
