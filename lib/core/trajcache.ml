open Inltune_jir
open Inltune_opt
open Inltune_vm
module Metric = Inltune_obs.Metric
module Prof = Inltune_obs.Prof

(* Recompile-trajectory cache: the exact fitness cache for [Adapt] and
   [Ladder], shared across plans and deciders.

   Under the adaptive scenarios the genome reaches a simulation only
   through its optimizing recompiles.  A *trajectory* is the sequence of
   them; this module keeps one trie of trajectories per (program digest,
   scenario, platform, iterations, fuel, I-cache flag):

   - a node is one optimizing recompile: the method id plus the profile as
     the optimizer can read it at that moment (a [Machine.recompile] node);
   - an edge is the digest of what that recompile produced
     ([output_digest]);
   - a leaf is the finished measurement.

   A query walks the trie: at each node it computes the edge its own plan
   and decider produce against the node's stored profile window, and
   follows it.  A leaf answers the query without a VM; a missing edge is a
   miss, and the caller simulates with recording (reusing the outputs the
   walk computed) and inserts the path.

   Computing an edge needs the method after the plan's last inliner-kind
   item L (the front) and its size, [size_peak].  When the plan's enabled
   items from its first inliner-kind item F through L are all of inliner
   kind ([Pipeline.inliner_span]: every plan genome and the default plan),
   the walk derives the front without building any IR.  It runs the items
   before F, which are cheap (guarded devirtualization returns its input
   when it guards no site, and constprop of an original method comes from
   the fact table), and takes the digest, size and root call-site table of
   the method they produce from the fact table when it is the constprop'd
   original ([constprop_inputs]), describing it once when it is not.  Then
   for each enabled item of the block it walks the engine's decisions on
   that input ([Engine.walk_from], under the policy the pass would build,
   [Pipeline.engine_at]) and asks the inliner memo, keyed on (program,
   input digest, effective accept bits), for the output's digest, size and
   table; an item that accepts no site passes its input through.  At the
   first item the memo cannot answer, the walk runs the block for real
   from the prefix it kept, adding an entry for every engine run that
   accepted a site; those outputs are the only ones it digests.  Any other
   plan runs through L for real and digests that method.

   When every enabled item after L is context-free
   ([Pipeline.context_free_suffix]), the suffix memo maps (program,
   input-method digest, canonical item text) to the item's output digest
   and size; when it answers for every item, the edge comes from the last
   digest, [size_peak] and [size_after] with no payoff pass run.  At the
   first item it cannot answer, the walk runs the items before it from the
   front without hashing (running a derived block for real first), then
   that item and every later one, adding an entry for each.  A walk that
   ends in a miss completes each memo-served node by running only the items
   it did not run on the run it kept — after L, or after the items before
   F for a derived front ([outputs]) — so the simulation still runs no
   pass twice.

   Why the answer is exact — an induction over recompiles:

   - Before the first optimizing recompile nothing depends on the genome.
     Baseline and O1 compiles read neither the plan nor the decider (O1
     runs the fixed [Pipeline.no_inline_config]); execution, sampling and
     recompile triggers read only the installed code and execution cycles;
     compile cycles never feed the sampler.  So every query on a trie
     reaches the same first node, or the same leaf if the run never
     recompiles.
   - A recompile reads only known inputs.  An optimizing recompile of [m]
     reads [m], the plan, the decider, the program's fact table and the
     profile — the latter only through [edge_count] and [total_calls], via
     the hot-site test, the guarded-devirtualization oracle and the
     hot-path strategy's view ([Machine.pipeline_config] builds all three
     from one window).  Every edge it can ask about is owned by a method in
     reach(m) ([Machine.reach]): [m] itself, and whatever [m] reaches
     through static calls and through every class's vtable entry at a
     virtual call's slot, since only those bodies can be inlined into [m].
     A node stores the total and every nonzero edge owned in reach(m), so
     its window answers every query the live profile would, alike.
   - Each recompile's output fixes the next node.  The state at recompile
     k+1 is a function of the state at recompile k and of what recompile k
     produced: the post-pipeline method (register allocation and lowering
     are functions of it and the platform), [size_peak] (compile cycles)
     and [size_after] (code bytes, hence every later code address).  The
     digest covers exactly those, so equal (method, digest) sequences give
     identical runs, the measurement included.
   - The inliner memo computes the front.  An engine run's output is a
     function of the program, its input method and its effective accept
     bits (the contract of [Engine.run] and [Engine.walk_from]): hotness
     reaches the code only through the policy's verdicts, and [Space_cap]
     and the recursion guard act as in [Engine.run].  The bits are a
     function of what a node knows: the input's root call sites (callee
     ids, in block-then-instruction order) and its size, the original
     bodies' tables, and the policy the pass builds — [inline_leaves] and
     [inline_region] from their knobs, [inline_hot] from its knobs and the
     node's window, [inline] from the decider and the node's hot-site
     predicate (the Fig. 4 path), the size-budgeted two from the input's
     size.  The input's description is taken from a real method: the one
     the items before F produced, or the output an earlier entry was built
     from.  So every entry is a fact about its key, and by induction over
     the block's items the last digest is the digest of the method a real
     run has after L, and the last size its [size_peak].
   - The suffix memo computes the edge.  An edge is the digest of (method
     digest, [size_peak], [size_after]) however it was computed.
     [size_peak] is the front's size, recorded right after L.  After L
     only context-free items run: each reads the program, its input
     method and its knobs and nothing else, so its output is a function of
     the memo's key (the input enters as its digest, and the program and
     knobs as the program digest and the canonical item text).  By
     induction over the items, the last digest the memo gives is the
     digest of the method a whole run returns, and the last size its
     [size_after].  A plan with an item after L that reads the decider or
     the profile uses neither memo.

   Hence a walk that reaches a leaf returns the measurement a fresh
   simulation of the query would.  The cache sits behind the fitness cache
   (only its misses walk) and is consulted by [Measure.run_decider] only
   for deciders that read no live profile — the heuristic and static
   policies — on the flat interpreter; [Fitcache.clear] empties it.

   Concurrency: one mutex guards the tries and the memos; pipelines,
   decision walks and digests run outside it, and each lookup builds its
   keys in a buffer of its own.  Two domains racing on one fresh path both
   simulate, and the second insert finds the path present; a memo entry
   is a fact about its key, so whichever domain adds it first wins.  A
   walk that loses its root to an eviction finishes on the detached trie,
   whose contents are still facts; its miss carries the root's
   generation, and an insert whose root has since been evicted or
   replaced stores nothing, so no path hangs below a dead node.

   Memory: a node is one int array — the method id, [total_calls], then
   one [Machine.Packed_edge] per recorded edge — plus its children, each
   child's digest two ints.  The tries hold at most [budget_bytes]: an
   insert that does not fit evicts the least recently walked whole roots
   (never the one it grows) until it does, and is dropped if it would not
   fit even then.  The suffix memo holds at most [memo_cap] entries of
   five ints, and the inliner memo at most [engine_cap] entries of five
   ints and a call-site table, each on a budget of its own; each starts
   over empty when full.  So a long-lived process stays bounded, and a
   later search in it is served as well as the first. *)

type trie = Node of node | Leaf of Runner.measurement
and node = { packed : int array; mutable kids : kid list }
and kid = { d0 : int; d1 : int; next : trie }

(* One trie and what it holds: resident bytes and nodes, the tick of its
   last walk, and a generation no other root has had since the process
   started. *)
type root = {
  trie : trie;
  gen : int;
  mutable r_bytes : int;
  mutable r_nodes : int;
  mutable stamp : int;
}

let budget_bytes = 512 * 1024

(* Heap bytes per structure, headers included: a node record and its
   array, a child record and its list cell, a leaf and its measurement,
   and a root record with its table bucket and key. *)
let node_bytes packed = 8 * (3 + Array.length packed + 1)
let kid_bytes = 8 * (4 + 3)
let leaf_bytes = 8 * (2 + 13)
let root_bytes key = 8 * (6 + 4 + 2 + (String.length key / 8))

let hits = Metric.handle "fitness.traj_hits"
let misses = Metric.handle "fitness.traj_misses"
let nodes_added = Metric.handle "fitness.traj_nodes"
let bytes_added = Metric.handle "fitness.traj_bytes"
let evictions = Metric.handle "fitness.traj_evictions"
let chain_hits = Metric.handle "fitness.traj_chain_hits"
let chain_misses = Metric.handle "fitness.traj_chain_misses"
let engine_hits = Metric.handle "fitness.traj_engine_hits"
let engine_misses = Metric.handle "fitness.traj_engine_misses"

(* [mu] guards [roots], every root's counts and stamp, every node's
   [kids], the counters below, the budget and the memo. *)
let mu = Mutex.create ()
let roots : (string, root) Hashtbl.t = Hashtbl.create 16
let budget = ref budget_bytes
let generations = ref 0
let tick = ref 0
let total_nodes = ref 0
let total_bytes = ref 0

(* --- the memos ----------------------------------------------------------------

   A memo maps a key of two ints to an output digest and an output size,
   flat: entry [e] is five ints at [(e mod 256) * 5] of chunk [e / 256] —
   the key's two ints, the output digest's two ints and the output's size
   — and a 16-bit index of [slots] slots holds entry + 1 (0 = empty),
   probed linearly from the key's low bits.  The inliner memo also keeps
   each entry's output call-site table, at [tables.(e)].  The cap keeps
   the index at most 3/4 full.  Chunks are allocated as entries arrive;
   nothing is allocated before the first entry.  A full memo empties
   itself before its next entry (its chunks stay allocated for the
   refill). *)

type memo = {
  cap : int;
  slots : int;
  mutable index : Bytes.t;
  chunks : int array array;
  mutable tables : int array array;  (* [||] until the first table *)
  mutable count : int;
  added : Metric.handle;
}

let chunk_entries = 256
let entry_ints = 5

let memo ~cap ~slots counter =
  {
    cap;
    slots;
    index = Bytes.empty;
    chunks = Array.make (cap / chunk_entries) [||];
    tables = [||];
    count = 0;
    added = Metric.handle counter;
  }

(* (program, input-method digest, item text) -> the item's output. *)
let suffix = memo ~cap:3072 ~slots:4096 "fitness.traj_memo_entries"

(* (program, input-method digest, effective accept bits) -> the engine
   run's output, with its root call-site table. *)
let inliners = memo ~cap:1024 ~slots:2048 "fitness.traj_engine_entries"

let memo_cap = suffix.cap
let engine_cap = inliners.cap

(* Under [mu]: the entry under key [(k0, k1)], or -1. *)
let memo_find t k0 k1 =
  if t.count = 0 then -1
  else
    let rec probe s =
      match Bytes.get_uint16_le t.index (2 * s) with
      | 0 -> -1
      | e1 ->
        let e = e1 - 1 in
        let c = t.chunks.(e / chunk_entries) and o = e mod chunk_entries * entry_ints in
        if c.(o) = k0 && c.(o + 1) = k1 then e else probe ((s + 1) land (t.slots - 1))
    in
    probe (k0 land (t.slots - 1))

let memo_field t e i = t.chunks.(e / chunk_entries).((e mod chunk_entries * entry_ints) + i)

(* Under [mu]: add an entry unless its key is present, emptying a full
   memo first. *)
let memo_add t ?table (k0, k1) (o0, o1) size =
  if memo_find t k0 k1 < 0 then begin
    if Bytes.length t.index = 0 then t.index <- Bytes.make (2 * t.slots) '\000';
    if t.count = t.cap then begin
      Bytes.fill t.index 0 (Bytes.length t.index) '\000';
      Array.fill t.tables 0 (Array.length t.tables) [||];
      t.count <- 0
    end;
    let e = t.count in
    let ci = e / chunk_entries in
    if Array.length t.chunks.(ci) = 0 then
      t.chunks.(ci) <- Array.make (chunk_entries * entry_ints) 0;
    let c = t.chunks.(ci) and o = e mod chunk_entries * entry_ints in
    c.(o) <- k0;
    c.(o + 1) <- k1;
    c.(o + 2) <- o0;
    c.(o + 3) <- o1;
    c.(o + 4) <- size;
    Option.iter
      (fun tb ->
        if Array.length t.tables = 0 then t.tables <- Array.make t.cap [||];
        t.tables.(e) <- tb)
      table;
    let rec place s =
      if Bytes.get_uint16_le t.index (2 * s) = 0 then Bytes.set_uint16_le t.index (2 * s) (e + 1)
      else place ((s + 1) land (t.slots - 1))
    in
    place (k0 land (t.slots - 1));
    t.count <- e + 1;
    Metric.bump t.added
  end

(* Under [mu]. *)
let memo_clear t =
  t.index <- Bytes.empty;
  Array.fill t.chunks 0 (Array.length t.chunks) [||];
  t.tables <- [||];
  t.count <- 0

(* Under [mu]: heap bytes held, headers included. *)
let memo_held t =
  let words n = if n = 0 then 0 else 8 * (n + 1) in
  let sum f a = Array.fold_left (fun b x -> b + f x) 0 a in
  (8 * (Array.length t.chunks + 1))
  + Bytes.length t.index
  + sum (fun c -> words (Array.length c)) t.chunks
  + words (Array.length t.tables)
  + sum (fun tb -> words (Array.length tb)) t.tables

let memo_entries () = Mutex.protect mu (fun () -> suffix.count)
let engine_entries () = Mutex.protect mu (fun () -> inliners.count)
let engine_bytes () = Mutex.protect mu (fun () -> memo_held inliners)
let memo_bytes () = Mutex.protect mu (fun () -> memo_held suffix + memo_held inliners)

let clear () =
  Mutex.protect mu (fun () ->
      Hashtbl.reset roots;
      total_nodes := 0;
      total_bytes := 0;
      memo_clear suffix;
      memo_clear inliners)

let nodes () = Mutex.protect mu (fun () -> !total_nodes)
let bytes () = Mutex.protect mu (fun () -> !total_bytes)

(* --- digests --------------------------------------------------------------- *)

let ints_of_digest d =
  (Int64.to_int (String.get_int64_le d 0), Int64.to_int (String.get_int64_le d 8))

let digest_ints ints =
  let b = Bytes.create (8 * List.length ints) in
  List.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.of_int v)) ints;
  ints_of_digest (Digest.bytes b)

(* Two ints of the MD5 of a method. *)
let method_digest (m : Ir.methd) =
  ints_of_digest (Digest.string (Marshal.to_string m [ Marshal.No_sharing ]))

(* What a recompile produced, as far as the rest of the run can tell: the
   post-pipeline method (register allocation and lowering are functions of
   it and the platform), [size_peak] (compile cycles) and [size_after]
   (code bytes). *)
let edge (d0, d1) ~size_peak ~size_after = digest_ints [ d0; d1; size_peak; size_after ]

let output_digest ((code : Ir.methd), (stats : Pipeline.stats)) =
  edge (method_digest code) ~size_peak:stats.Pipeline.size_peak
    ~size_after:stats.Pipeline.size_after

(* --- the walk -------------------------------------------------------------- *)

let key (cfg : Machine.config) (platform : Platform.t) ~iterations facts =
  Printf.sprintf "%s/%s/%s/%d/%d/%b" (Facts.digest facts)
    (Machine.scenario_name cfg.Machine.scenario)
    platform.Platform.pname iterations cfg.Machine.fuel cfg.Machine.icache_enabled

(* A query's memo chain: the plan's last inliner-kind item, and for each
   enabled item after it its index and a key buffer — the MD5 of the
   program digest and the item's canonical text, then room for an input
   digest — and, when the walk can derive the plan's inliner block
   ([Pipeline.inliner_span]), the block's first item. *)
type chain = { first : int option; last : int; items : (int * Bytes.t) array }

let chain_of facts (plan : Plan.t) =
  Option.map
    (fun last ->
      let items = ref [] in
      Array.iteri
        (fun j (it : Plan.item) ->
          if j > last && it.Plan.enabled then begin
            let buf = Bytes.make 32 '\000' in
            Bytes.blit_string
              (Digest.string (Facts.digest facts ^ "\n" ^ Plan.item_to_string it))
              0 buf 0 16;
            items := (j, buf) :: !items
          end)
        plan.Plan.items;
      {
        first = Option.map fst (Pipeline.inliner_span plan);
        last;
        items = Array.of_list (List.rev !items);
      })
    (Pipeline.context_free_suffix plan)

(* The memo key of chain item [buf] on an input method of digest [d]. *)
let memo_key buf (d0, d1) =
  Bytes.set_int64_le buf 16 (Int64.of_int d0);
  Bytes.set_int64_le buf 24 (Int64.of_int d1);
  ints_of_digest (Digest.bytes buf)

(* A method entering an inliner, as a derived walk knows it: its digest,
   its size and its root call-site table. *)
type input = { d : int * int; size : int; table : int array }

let describe m = { d = method_digest m; size = Size.of_method m; table = Engine.callees m }

(* [describe] of each original method's constprop'd form
   ([Pass.constprop_original]), filled on first use outside [mu]: domains
   racing on a slot store equal descriptions. *)
let constprop_inputs =
  Facts.key ~name:"traj_inputs" (fun f -> Array.make (Array.length (Facts.sizes f)) None)

(* What one lookup reads of its program, and the buffer its inliner-memo
   keys are built in: the program digest, an input digest, then one
   '1'/'0' per decided site. *)
type query = {
  prog : Ir.program;
  facts : Facts.t;
  chain : chain option;
  bodies : Engine.call_sites;
  inputs : input option array;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable ones : int;
}

let query cfg prog =
  let facts = Facts.of_program prog in
  let buf = Bytes.create 128 in
  Bytes.blit_string (Digest.from_hex (Facts.digest facts)) 0 buf 0 16;
  {
    prog;
    facts;
    chain = chain_of facts (Machine.optimizing_plan cfg);
    bodies = Engine.bodies facts;
    inputs = Facts.get facts constprop_inputs;
    buf;
    len = 0;
    ones = 0;
  }

(* The method the items before the first inliner made of [m0]'s original:
   from the fact table when it is the constprop'd original, else
   described here. *)
let first_input q (m0 : Ir.methd) =
  let mid = m0.Ir.mid in
  if fst (Pass.constprop_original q.facts mid) != m0 then describe m0
  else
    match q.inputs.(mid) with
    | Some i -> i
    | None ->
      let i = describe m0 in
      q.inputs.(mid) <- Some i;
      i

let push_bit q accept =
  if q.len = Bytes.length q.buf then q.buf <- Bytes.extend q.buf 0 q.len;
  Bytes.unsafe_set q.buf q.len (if accept then '1' else '0');
  q.len <- q.len + 1;
  if accept then q.ones <- q.ones + 1

(* Engine run [e] decided on input [inp] of method [mid]: its effective
   accept bits behind [inp]'s digest in the query's buffer.  Whether it
   accepts a site. *)
let decide q (e : Pass.engine_run) mid inp =
  Bytes.set_int64_le q.buf 16 (Int64.of_int (fst inp.d));
  Bytes.set_int64_le q.buf 24 (Int64.of_int (snd inp.d));
  q.len <- 32;
  q.ones <- 0;
  Engine.walk_from ~bodies:q.bodies ~callees:inp.table ~size:inp.size ?hot_site:e.Pass.hot_site
    ~policy:e.Pass.policy mid (push_bit q);
  q.ones > 0

let engine_key q = ints_of_digest (Digest.subbytes q.buf 0 q.len)

(* Items [j, ch.last] of the inliner block on input [inp], from the
   inliner memo: the input after the block, or the item it could not
   answer with that item's input and key.  One lock per lookup; the keys
   are built outside it. *)
let rec derive q ch p0 mid j inp =
  if j > ch.last then Ok inp
  else
    match Pipeline.engine_at p0 j ~root_size:inp.size with
    | None -> derive q ch p0 mid (j + 1) inp
    | Some e when not (decide q e mid inp) -> derive q ch p0 mid (j + 1) inp
    | Some _ -> (
      let ((k0, k1) as k) = engine_key q in
      match
        Mutex.protect mu (fun () ->
            match memo_find inliners k0 k1 with
            | -1 -> None
            | e ->
              Some
                {
                  d = (memo_field inliners e 2, memo_field inliners e 3);
                  size = memo_field inliners e 4;
                  table = inliners.tables.(e);
                })
      with
      | Some out -> derive q ch p0 mid (j + 1) out
      | None -> Error (j, inp, k))

(* Item [j], which [derive] could not answer on [inp] under key [k], and
   every later item of the block, run for real from the prefix [p0]: the
   items before [j] run without hashing, and each engine run that accepts
   a site is digested and added to the memo.  The run after the block and
   the digest of its method. *)
let run_block q ch p0 mid j inp k =
  let p = ref (Pipeline.run_until p0 j) and inp = ref inp and added = ref [] in
  for i = j to ch.last do
    let key =
      if i = j then Some k
      else
        match Pipeline.engine_at !p i ~root_size:!inp.size with
        | Some e when decide q e mid !inp -> Some (engine_key q)
        | Some _ | None -> None
    in
    let before = Pipeline.current !p in
    p := Pipeline.run_until !p (i + 1);
    let m = Pipeline.current !p in
    if m != before then begin
      let out = describe m in
      Option.iter (fun key -> added := (key, out) :: !added) key;
      inp := out
    end
  done;
  Mutex.protect mu (fun () ->
      List.iter (fun (k, o) -> memo_add inliners ~table:o.table k o.d o.size) (List.rev !added));
  (!p, !inp.d)

(* A node a walk passed: its full pipeline output, or — when the memo
   served the chain — the run as the walk kept it (after the last
   inliner, or before the first when the walk derived the block). *)
type passed = Output of (Ir.methd * Pipeline.stats) | Front of Pipeline.partial

let complete = function
  | Output out -> out
  | Front p ->
    let m, stats, _ = Pipeline.finish p in
    (m, stats)

(* The memo's answers for chain items [i, ...) from input digest [d] and
   size [size]: how far it got, the digest and the size there.  One lock
   per item; the keys are hashed outside it. *)
let rec follow ch i d size =
  if i = Array.length ch.items then (i, d, size)
  else
    let k0, k1 = memo_key (snd ch.items.(i)) d in
    match
      Mutex.protect mu (fun () ->
          match memo_find suffix k0 k1 with
          | -1 -> None
          | e -> Some ((memo_field suffix e 2, memo_field suffix e 3), memo_field suffix e 4))
    with
    | None -> (i, d, size)
    | Some (d', size') -> follow ch (i + 1) d' size'

(* Chain item [i] and on missed: run the items before it from the front
   without hashing, then each from it to the end, digesting every output
   and adding its entry ([memo_add] drops those past the cap). *)
let run_chain_from ch front i d =
  let p = ref (Pipeline.run_until front (fst ch.items.(i))) and d = ref d and added = ref [] in
  for k = i to Array.length ch.items - 1 do
    let j, buf = ch.items.(k) in
    let key = memo_key buf !d in
    p := Pipeline.run_until !p (j + 1);
    let m = Pipeline.current !p in
    d := method_digest m;
    added := (key, !d, Size.of_method m) :: !added
  done;
  Mutex.protect mu (fun () ->
      List.iter (fun (k, d, size) -> memo_add suffix k d size) (List.rev !added));
  let m, stats, _ = Pipeline.finish !p in
  ((m, stats), !d)

(* A front a walk holds: the run through the last inliner, or the run
   before the first one, whose block the inliner memo answered. *)
type front = Ran of Pipeline.partial | Derived of Pipeline.partial

(* The run through the last inliner, the digest of its method and its
   [size_peak].  A plan whose inliner block the walk can derive runs the
   items before the block, then asks the inliner memo for each item of
   the block, and runs the block only at the first item the memo cannot
   answer. *)
let walk_front q ch config mid =
  let m = q.prog.Ir.methods.(mid) in
  let start () = Pipeline.start q.prog config m in
  match ch.first with
  | None ->
    Prof.span "fitness.traj_front" (fun () ->
        let front = Pipeline.run_until (start ()) (ch.last + 1) in
        (Ran front, method_digest (Pipeline.current front), Pipeline.peak front))
  | Some first -> (
    let p0, derived =
      Prof.span "fitness.traj_engine" (fun () ->
          let p0 = Pipeline.run_until (start ()) first in
          let inp = first_input q (Pipeline.current p0) in
          (p0, derive q ch p0 mid first inp))
    in
    match derived with
    | Ok out ->
      Metric.bump engine_hits;
      (Derived p0, out.d, out.size)
    | Error (j, inp, k) ->
      Metric.bump engine_misses;
      Prof.span "fitness.traj_front" (fun () ->
          let front, d = run_block q ch p0 mid j inp k in
          (Ran front, d, Pipeline.peak front)))

(* One node's edge, and what the walk keeps of it.  Without a chain the
   pipeline runs whole; with one the walk takes the front through the
   last inliner ([walk_front]), and the memo answers for the rest when it
   can. *)
let walk_edge q config mid =
  match q.chain with
  | None ->
    let out =
      Prof.span "fitness.traj_front" (fun () -> Pipeline.run q.prog config q.prog.Ir.methods.(mid))
    in
    (Output out, output_digest out)
  | Some ch ->
    let front, d, size_peak = walk_front q ch config mid in
    Prof.span "fitness.traj_chain" (fun () ->
        match follow ch 0 d size_peak with
        | i, d, size_after when i = Array.length ch.items ->
          Metric.bump chain_hits;
          let (Ran p | Derived p) = front in
          (Front p, edge d ~size_peak ~size_after)
        | i, d, _ ->
          Metric.bump chain_misses;
          let front =
            match front with
            | Ran p -> p
            | Derived p0 ->
              Prof.span "fitness.traj_front" (fun () -> Pipeline.run_until p0 (ch.last + 1))
          in
          let ((_, stats) as out), d = run_chain_from ch front i d in
          (Output out, edge d ~size_peak ~size_after:stats.Pipeline.size_after))

(* Where a walk fell off: the trie's key, its root's generation (-1 when
   it had no root), the nodes it passed, and the last node it passed with
   the digest of that node's output ([None] when it had no root). *)
type miss = {
  m_key : string;
  m_generation : int;
  m_outputs : (Ir.methd * Pipeline.stats) list Lazy.t;
  m_at : (node * (int * int)) option;
}

type outcome = Hit of Runner.measurement | Miss of miss

let outputs miss = Lazy.force miss.m_outputs
let find_kid n (d0, d1) = List.find_opt (fun k -> k.d0 = d0 && k.d1 = d1) n.kids

(* Under [mu]: the next tick of the walk clock. *)
let next_tick () =
  incr tick;
  !tick

let find (cfg : Machine.config) platform ~iterations ~decider prog =
  let q = query cfg prog in
  let facts = q.facts in
  let k = key cfg platform ~iterations facts in
  let root =
    Mutex.protect mu (fun () ->
        let r = Hashtbl.find_opt roots k in
        Option.iter (fun r -> r.stamp <- next_tick ()) r;
        r)
  in
  let miss passed at =
    Metric.bump misses;
    Miss
      {
        m_key = k;
        m_generation = (match root with Some r -> r.gen | None -> -1);
        m_outputs = lazy (List.map complete (List.rev passed));
        m_at = at;
      }
  in
  let rec walk passed = function
    | Leaf m ->
      Metric.bump hits;
      Hit m
    | Node n -> (
      let config =
        Machine.pipeline_config cfg platform facts decider (Machine.node_view facts n.packed)
      in
      let here, digest = walk_edge q config n.packed.(0) in
      match Mutex.protect mu (fun () -> find_kid n digest) with
      | Some kid -> walk (here :: passed) kid.next
      | None -> miss (here :: passed) (Some (n, digest)))
  in
  match root with Some r -> walk [] r.trie | None -> miss [] None

let node_edge (cfg : Machine.config) platform ~decider prog packed =
  let q = query cfg prog in
  let config =
    Machine.pipeline_config cfg platform q.facts decider (Machine.node_view q.facts packed)
  in
  snd (walk_edge q config packed.(0))

(* A path not yet stored, from (node, output digest) pairs and the leaf,
   with its size in bytes and nodes. *)
let rec path recorded m =
  match recorded with
  | [] -> (Leaf m, leaf_bytes, 0)
  | (packed, (d0, d1)) :: rest ->
    let next, b, n = path rest m in
    (Node { packed; kids = [ { d0; d1; next } ] }, b + node_bytes packed + kid_bytes, n + 1)

(* Under [mu]: evict the least recently walked root other than [keep]. *)
let evict_lru ~keep =
  Prof.span "fitness.traj_evict" (fun () ->
      let victim =
        Hashtbl.fold
          (fun k r best ->
            match (keep, best) with
            | Some kr, _ when kr == r -> best
            | _, Some (_, b) when b.stamp <= r.stamp -> best
            | _ -> Some (k, r))
          roots None
      in
      Option.iter
        (fun (k, r) ->
          Hashtbl.remove roots k;
          total_bytes := !total_bytes - r.r_bytes;
          total_nodes := !total_nodes - r.r_nodes;
          Metric.bump evictions)
        victim)

(* Under [mu]: whether [b] more bytes fit in root [keep] ([None]: a new
   root), after evicting the least recently walked other roots as needed.
   Nothing is evicted for bytes that would not fit beside [keep] alone. *)
let make_room ~keep b =
  let own = match keep with Some r -> r.r_bytes | None -> 0 in
  if own + b > !budget then false
  else begin
    while !total_bytes + b > !budget do
      evict_lru ~keep
    done;
    true
  end

(* Under [mu]: count [b] bytes and [n] nodes added to root [r]. *)
let account r (b, n) =
  r.r_bytes <- r.r_bytes + b;
  r.r_nodes <- r.r_nodes + n;
  total_bytes := !total_bytes + b;
  total_nodes := !total_nodes + n;
  Metric.bump_by bytes_added b;
  Metric.bump_by nodes_added n

(* Under [mu]: hang [recorded] below node [n] of root [r] at edge
   [digest], following whatever part of it another insert stored
   meanwhile (by the induction, its nodes equal the recorded ones).  A
   recorded path that ends at a stored node, or runs on past a stored
   leaf, would contradict the induction; nothing of it is stored. *)
let rec attach r n digest recorded m =
  match find_kid n digest with
  | None ->
    let next, b, c = path recorded m in
    if make_room ~keep:(Some r) (b + kid_bytes) then begin
      n.kids <- { d0 = fst digest; d1 = snd digest; next } :: n.kids;
      account r (b + kid_bytes, c)
    end
  | Some { next = Node n'; _ } -> (
    match recorded with (_, d) :: rest -> attach r n' d rest m | [] -> ())
  | Some { next = Leaf _; _ } -> ()

(* Under [mu]: a new root for key [k] holding [recorded]. *)
let plant k recorded m =
  let t, b, c = path recorded m in
  let b = b + root_bytes k in
  if make_room ~keep:None b then begin
    incr generations;
    let r = { trie = t; gen = !generations; r_bytes = 0; r_nodes = 0; stamp = next_tick () } in
    Hashtbl.replace roots k r;
    account r (b, c)
  end

let insert miss (recorded : Machine.recompile list) m =
  if List.for_all (fun (r : Machine.recompile) -> Option.is_some r.Machine.node) recorded then begin
    let recorded =
      List.map
        (fun (r : Machine.recompile) ->
          (Option.get r.Machine.node, output_digest r.Machine.output))
        recorded
    in
    Mutex.protect mu (fun () ->
        match (miss.m_at, Hashtbl.find_opt roots miss.m_key) with
        | Some (n, digest), Some r when r.gen = miss.m_generation -> attach r n digest recorded m
        | Some _, _ -> ()
        | None, None -> plant miss.m_key recorded m
        | None, Some ({ trie = Node n; _ } as r) -> (
          match recorded with (_, d) :: rest -> attach r n d rest m | [] -> ())
        | None, Some { trie = Leaf _; _ } -> ())
  end

let with_budget n f =
  let set n =
    Mutex.protect mu (fun () ->
        budget := n;
        while !total_bytes > n do
          evict_lru ~keep:None
        done)
  in
  let old = Mutex.protect mu (fun () -> !budget) in
  set n;
  Fun.protect ~finally:(fun () -> set old) f
