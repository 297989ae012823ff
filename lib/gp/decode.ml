(* Decoding a tree genome into a first-class Policy.t — the seam through
   which evolved predicates reach the unchanged inliner/pipeline/VM.

   The decode is deliberately STATIC: the feature context carries no live
   profile, so a site's features depend only on the program text and the
   site record ([edge_calls] is 0, [hot] comes from the inliner's own flag).
   Under [Adapt] the VM records call edges during execution, which means a
   profile-aware decode would make compile-time decisions depend on
   invocation order — breaking both reproducibility across scenarios and
   the soundness of the Opt decision-signature walk the fitness cache keys
   on ([decider] is [Fitcache.Static]). *)

module Features = Inltune_policy.Features
module Policy = Inltune_opt.Policy

let policy ~ctx tree =
  Policy.of_predicate ~name:"gp" ~accept_rule:"gp_accept" ~reject_rule:"gp_reject"
    (fun site -> Tree.eval tree (Features.of_site ctx site))

(* The Machine.config factory: ignores the live profile (see above). *)
let factory ~ctx tree =
  let p = policy ~ctx tree in
  fun (_ : Inltune_vm.Profile.t) -> p

(* The measurement path's decider: static, keyed by the tree's digest where
   no exact walk applies. *)
let decider tree =
  Inltune_core.Fitcache.Static
    {
      digest = Tree.digest tree;
      policy = (fun prog -> policy ~ctx:(Features.make_ctx prog) tree);
    }

(* Fraction of flip-oracle examples the tree labels correctly — the cheap
   surrogate the evolver's pre-filter compares against the current elite
   before paying for simulation.  Empty training data agrees vacuously. *)
let agreement training tree =
  let n = Array.length training in
  if n = 0 then 1.0
  else begin
    let ok = ref 0 in
    Array.iter (fun (x, label) -> if Tree.eval tree x = label then incr ok) training;
    Float.of_int !ok /. Float.of_int n
  end
