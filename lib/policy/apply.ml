open Inltune_opt

(* Stored policy -> the inliner's first-class interface.  The threshold kind
   routes through Policy.of_heuristic so its decisions — and the rule strings
   in "inline.decision" events — are indistinguishable from the built-in
   heuristic; that equivalence is an acceptance test. *)

let policy ~ctx ?profile store =
  match store with
  | Store.Threshold h -> Policy.of_heuristic h
  | Store.Tree t ->
    let fctx = match profile with None -> ctx | Some p -> Features.with_profile ctx p in
    {
      Policy.name = "tree";
      decide =
        (fun s ->
          let accept = Dtree.decide t (Features.of_site fctx s) in
          { Policy.accept; rule = (if accept then "tree_accept" else "tree_reject") });
    }

let factory ~ctx store profile = policy ~ctx ~profile store

(* The measurement path's decider.  A threshold store is just a heuristic,
   sharing the heuristic's fitness-cache entries.  A tree reads the live
   profile (edge counts, via the per-compile factory), so it is keyed by the
   store's content digest. *)
let decider store =
  match store with
  | Store.Threshold h -> Inltune_core.Fitcache.Heuristic h
  | Store.Tree _ ->
    Inltune_core.Fitcache.Profiled
      {
        digest = Digest.to_hex (Digest.string (Store.to_string store));
        factory = (fun prog -> factory ~ctx:(Features.make_ctx prog) store);
      }
