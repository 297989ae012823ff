open Inltune_jir
(* First-class inlining policies.  The inliner's decision procedure consults
   exactly this interface; the paper's threshold heuristic, the knapsack
   baseline's closure, and the learned policies of lib/policy are all
   implementations of it. *)

type site = {
  owner : Ir.mid;
  callee : Ir.mid;
  callee_size : int;
  inline_depth : int;
  caller_size : int;
  hot : bool;
}

type verdict = {
  accept : bool;
  rule : string;
}

type t = {
  name : string;
  decide : site -> verdict;
}

(* Rule strings reuse the Fig. 3/4 outcome names verbatim so traces written
   before the policy interface existed keep the same vocabulary. *)
let of_heuristic h =
  {
    name = "heuristic";
    decide =
      (fun s ->
        if s.hot then
          let o = Heuristic.evaluate_hot h ~callee_size:s.callee_size in
          { accept = o = Heuristic.Hot_accept; rule = Heuristic.hot_outcome_name o }
        else
          let o =
            Heuristic.evaluate h ~callee_size:s.callee_size ~inline_depth:s.inline_depth
              ~caller_size:s.caller_size
          in
          let accept =
            match o with
            | Heuristic.Always_inline | Heuristic.All_tests_pass -> true
            | Heuristic.Callee_too_big | Heuristic.Depth_exceeded | Heuristic.Caller_too_big
              -> false
          in
          { accept; rule = Heuristic.outcome_name o });
  }

let of_custom f =
  {
    name = "custom";
    decide =
      (fun s ->
        let accept =
          f ~site_owner:s.owner ~callee:s.callee ~callee_size:s.callee_size
            ~inline_depth:s.inline_depth ~caller_size:s.caller_size
        in
        { accept; rule = (if accept then "custom_accept" else "custom_reject") });
  }

(* A pure site predicate lifted to a policy; the caller names the family and
   the two rule strings so traces can tell one predicate source from
   another (the GP's evolved predicates use "gp" / "gp_accept" /
   "gp_reject"). *)
let of_predicate ~name ~accept_rule ~reject_rule f =
  {
    name;
    decide =
      (fun s ->
        let accept = f s in
        { accept; rule = (if accept then accept_rule else reject_rule) });
  }
