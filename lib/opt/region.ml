open Inltune_jir
(* Region/depth-budget inliner strategy (after Way & Pollock's demand-driven
   region-based inlining).

   Instead of judging each callee in isolation, the strategy grows an
   *inlined region* rooted at the method being compiled: call chains are
   expanded greedily in the engine's depth-first site order for as long as
   the region's total expansion stays within a per-root budget and the
   chain stays within a depth cap.  The budget is charged against
   [caller_size - root_size] — exactly the expansion the engine has already
   committed to — so a big root method gets the same headroom as a small
   one, unlike the Fig. 3 CALLER_MAX_SIZE test which charges the root's own
   size against the limit.

   The decision reads nothing but the site record and the root's static
   size, so the strategy is *static*: the call-site table walk
   ({!Engine.walk}) over its policy reproduces the exact compile-time
   verdict sequence (Fitcache exactness). *)

(* [policy ~budget ~depth root] accepts a site iff the inline chain is
   within [depth] and expanding the callee keeps the region within
   [budget] size-estimate units of growth over the root method [root]. *)
let policy ~budget ~depth root =
  let root_size = Size.of_method root in
  Policy.of_predicate
    ~name:"region" ~accept_rule:"in_region" ~reject_rule:"region_full" (fun s ->
      s.Policy.inline_depth <= depth
      && s.Policy.caller_size - root_size + s.Policy.callee_size <= budget)
