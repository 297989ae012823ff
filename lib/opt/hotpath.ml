open Inltune_jir
(* Profile-guided hot-path inliner strategy (the AOS line: spend code space
   where the profile says the program actually lives).

   The adaptive tiers already collect per-call-edge execution counts
   ({!Inltune_vm.Profile}); this strategy consumes them through a [view] —
   two closures over the live profile, installed by the VM at compile time —
   and inlines a site iff its edge carries at least [hot_permille] ‰ of all
   recorded calls, subject to a per-root expansion [budget] like the region
   strategy's.  Unlike the Fig. 4 hot test (a single callee-size threshold
   on sites a *fixed platform fraction* classifies as hot), the hotness cut
   here is a tunable knob, so the GA can trade code growth against
   steady-state speed per program.

   Decisions read the live profile, so the strategy is *not* static:
   Fitcache cannot walk it and falls back to plan-digest isolation (the
   knobs are part of the plan text, and the profile trajectory is
   deterministic given the plan and heuristic — see fitcache.ml).  Given a
   fixed window (a trajectory-cache node's), though, its verdicts read
   only the site record, the window and the root's size, so a decision
   walk under that window ({!Engine.walk_from}) is exact. *)

(* What the strategy is allowed to see of the live profile. *)
type view = {
  edge_count : site_owner:Ir.mid -> callee:Ir.mid -> int;
  total_calls : unit -> int;
}

(* [policy ~hot_permille ~budget view ~root_size] accepts a site iff its
   call edge carries at least [hot_permille] per-mille of all recorded
   calls and the expansion over a root of [root_size] stays within
   [budget]. *)
let policy ~hot_permille ~budget view ~root_size =
  Policy.of_predicate
    ~name:"hotpath" ~accept_rule:"hot_path" ~reject_rule:"cold_path" (fun s ->
      let total = view.total_calls () in
      total > 0
      && view.edge_count ~site_owner:s.Policy.owner ~callee:s.Policy.callee * 1000
         >= hot_permille * total
      && s.Policy.caller_size - root_size + s.Policy.callee_size <= budget)
