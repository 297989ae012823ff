open Inltune_jir
(* Small-leaf inliner strategy (flrc-style iterate-to-fixpoint).

   Round 1 of the classical formulation inlines every call to a *leaf* —
   a method containing no calls at all — whose body is small; round 2
   inlines calls to methods that became leaves once round 1 expanded their
   callees; and so on to a round cap.  Driving the recursive {!Engine}
   there is no literal re-iteration: a method's **leaf level** (0 = no
   calls; k = every static callee has level < k) tells exactly which round
   would have picked it up, so the fixpoint collapses into one engine run
   that accepts a site iff the callee's level is below the round cap and
   its body is within the size budget.  Nested sites inside an accepted
   splice get their own decisions, which is precisely what the iterated
   formulation would do.

   Methods on a call cycle, and methods containing virtual calls (their
   callees are unknown statically), never become leaves at any level.

   The decision reads nothing but the program text and the site record, so
   the strategy is *static*: the call-site table walk ({!Engine.walk}) over
   its policy reproduces the exact compile-time verdict sequence, which
   Fitcache uses for exact decision signatures. *)

(* Level assigned to methods that never become leaves (cycles, virtual
   calls): above any reachable round cap. *)
let never_leaf = max_int

(* Leaf levels for every method, by memoized DFS over static call edges.
   [-1] = unvisited, [-2] = on the current DFS stack; seeing a [-2] callee
   means the edge closes a call cycle, which poisons every method on it. *)
let compute_levels program =
  let n = Array.length program.Ir.methods in
  let lv = Array.make n (-1) in
  let rec level mid =
    if lv.(mid) >= 0 then lv.(mid)
    else if lv.(mid) = -2 then never_leaf
    else begin
      lv.(mid) <- -2;
      let l = ref 0 in
      Array.iter
        (fun blk ->
          Array.iter
            (fun i ->
              match i with
              | Ir.Call (_, callee, _) ->
                let cl = level callee in
                if cl = never_leaf || !l = never_leaf then l := never_leaf
                else l := max !l (cl + 1)
              | Ir.CallVirt _ -> l := never_leaf
              | _ -> ())
            blk.Ir.instrs)
        program.Ir.methods.(mid).Ir.blocks;
      lv.(mid) <- !l;
      !l
    end
  in
  for mid = 0 to n - 1 do
    ignore (level mid)
  done;
  lv

(* One-entry level cache keyed by physical program identity: the pipeline
   constructs a policy per method compile, and [Suites.program] shares one
   immutable program value per benchmark, so recomputation would be pure
   waste.  Guarded for the parallel tuners ([Pool] domains). *)
let mu = Mutex.create ()
let cache : (Ir.program * int array) option ref = ref None

let levels program =
  Mutex.lock mu;
  let lv =
    match !cache with
    | Some (p, lv) when p == program -> lv
    | _ ->
      let lv = compute_levels program in
      cache := Some (program, lv);
      lv
  in
  Mutex.unlock mu;
  lv

(* [policy ~leaf_size ~rounds program] accepts a site iff the callee would
   be selected within [rounds] fixpoint rounds and fits the size budget. *)
let policy ~leaf_size ~rounds program =
  let lv = levels program in
  Policy.of_predicate
    ~name:(Printf.sprintf "leaves(leaf_size=%d,rounds=%d)" leaf_size rounds)
    ~accept_rule:"small_leaf" ~reject_rule:"not_small_leaf" (fun s ->
      lv.(s.Policy.callee) < rounds && s.Policy.callee_size <= leaf_size)
