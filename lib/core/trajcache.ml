open Inltune_jir
open Inltune_opt
open Inltune_vm
module Metric = Inltune_obs.Metric

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

   A query walks the trie: at each node it runs only [Pipeline.run] for its
   own plan and decider against the node's stored profile window, digests
   the output and follows the matching edge.  A leaf answers the query
   without a VM; a missing edge is a miss, and the caller simulates with
   recording (reusing the outputs the walk computed) and inserts the path.

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

   Hence a walk that reaches a leaf returns the measurement a fresh
   simulation of the query would.  The cache sits behind the fitness cache
   (only its misses walk) and is consulted by [Measure.run_decider] only
   for deciders that read no live profile — the heuristic and static
   policies — on the flat interpreter; [Fitcache.clear] empties it.

   Concurrency: one mutex guards the tries; pipelines run outside it.  Two
   domains racing on one fresh path both simulate, and the second insert
   finds the path present.

   Memory: a node is one int array plus its children, each child's digest
   two ints.  The tries grow to [budget_bytes] at most and then stop
   growing until the next [clear], so a long-lived process stays
   bounded. *)

type trie = Node of node | Leaf of Runner.measurement
and node = { packed : int array; mutable kids : kid list }
and kid = { d0 : int; d1 : int; next : trie }

let budget_bytes = 512 * 1024

(* Heap bytes per structure, headers included: a node record and its
   array, a child record and its list cell, a leaf and its measurement. *)
let node_bytes packed = 8 * (3 + Array.length packed + 1)
let kid_bytes = 8 * (4 + 3)
let leaf_bytes = 8 * (2 + 13)

let hits = Metric.handle "fitness.traj_hits"
let misses = Metric.handle "fitness.traj_misses"
let nodes_added = Metric.handle "fitness.traj_nodes"
let bytes_added = Metric.handle "fitness.traj_bytes"

(* [mu] guards [roots], every node's [kids], [generation] and the
   totals. *)
let mu = Mutex.create ()
let roots : (string, trie) Hashtbl.t = Hashtbl.create 16
let generation = ref 0
let total_nodes = ref 0
let total_bytes = ref 0

let clear () =
  Mutex.protect mu (fun () ->
      Hashtbl.reset roots;
      incr generation;
      total_nodes := 0;
      total_bytes := 0)

let nodes () = Mutex.protect mu (fun () -> !total_nodes)
let bytes () = Mutex.protect mu (fun () -> !total_bytes)

(* What a recompile produced, as far as the rest of the run can tell: the
   post-pipeline method (register allocation and lowering are functions of
   it and the platform), [size_peak] (compile cycles) and [size_after]
   (code bytes).  Two ints of its MD5. *)
let output_digest ((code : Ir.methd), (stats : Pipeline.stats)) =
  let d =
    Digest.string
      (Marshal.to_string (code, stats.Pipeline.size_peak, stats.Pipeline.size_after)
         [ Marshal.No_sharing ])
  in
  (Int64.to_int (String.get_int64_le d 0), Int64.to_int (String.get_int64_le d 8))

let key (cfg : Machine.config) (platform : Platform.t) ~iterations facts =
  Printf.sprintf "%s/%s/%s/%d/%d/%b" (Facts.digest facts)
    (Machine.scenario_name cfg.Machine.scenario)
    platform.Platform.pname iterations cfg.Machine.fuel cfg.Machine.icache_enabled

(* Where a walk fell off: the trie's key and generation, the outputs it
   computed, and the last node it passed with the digest of that node's
   output ([None] when the trie had no root). *)
type miss = {
  m_key : string;
  m_generation : int;
  m_outputs : (Ir.methd * Pipeline.stats) list;
  m_at : (node * (int * int)) option;
}

type outcome = Hit of Runner.measurement | Miss of miss

let outputs miss = miss.m_outputs
let find_kid n (d0, d1) = List.find_opt (fun k -> k.d0 = d0 && k.d1 = d1) n.kids

let find (cfg : Machine.config) platform ~iterations ~decider prog =
  let facts = Facts.of_program prog in
  let k = key cfg platform ~iterations facts in
  let gen, root = Mutex.protect mu (fun () -> (!generation, Hashtbl.find_opt roots k)) in
  let rec walk outputs = function
    | Leaf m ->
      Metric.bump hits;
      Hit m
    | Node n -> (
      let mid = n.packed.(0) in
      let config =
        Machine.pipeline_config cfg platform facts decider (Machine.node_view facts n.packed)
      in
      let out = Pipeline.run prog config prog.Ir.methods.(mid) in
      let digest = output_digest out in
      match Mutex.protect mu (fun () -> find_kid n digest) with
      | Some kid -> walk (out :: outputs) kid.next
      | None ->
        Metric.bump misses;
        Miss
          {
            m_key = k;
            m_generation = gen;
            m_outputs = List.rev (out :: outputs);
            m_at = Some (n, digest);
          })
  in
  match root with
  | Some t -> walk [] t
  | None ->
    Metric.bump misses;
    Miss { m_key = k; m_generation = gen; m_outputs = []; m_at = None }

(* A path not yet stored, from (node, output digest) pairs and the leaf,
   with its size in bytes and nodes. *)
let rec chain recorded m =
  match recorded with
  | [] -> (Leaf m, leaf_bytes, 0)
  | (packed, (d0, d1)) :: rest ->
    let next, b, n = chain rest m in
    (Node { packed; kids = [ { d0; d1; next } ] }, b + node_bytes packed + kid_bytes, n + 1)

(* Under [mu].  Grows the tries by [b] bytes and [n] nodes if the budget
   allows. *)
let admit (b, n) add =
  if !total_bytes + b <= budget_bytes then begin
    add ();
    total_bytes := !total_bytes + b;
    total_nodes := !total_nodes + n;
    Metric.bump_by bytes_added b;
    Metric.bump_by nodes_added n
  end

(* Under [mu]: hang [recorded] below node [n]'s edge [digest], following
   whatever part of it another insert stored meanwhile (by the induction,
   its nodes equal the recorded ones).  A recorded path that ends at a
   stored node, or runs on past a stored leaf, would contradict the
   induction; nothing of it is stored. *)
let rec attach n digest recorded m =
  match find_kid n digest with
  | None ->
    let next, b, c = chain recorded m in
    admit (b + kid_bytes, c) (fun () ->
        n.kids <- { d0 = fst digest; d1 = snd digest; next } :: n.kids)
  | Some { next = Node n'; _ } -> (
    match recorded with (_, d) :: rest -> attach n' d rest m | [] -> ())
  | Some { next = Leaf _; _ } -> ()

let insert miss (recorded : Machine.recompile list) m =
  let recorded =
    List.map
      (fun (r : Machine.recompile) -> (r.Machine.node, output_digest r.Machine.output))
      recorded
  in
  Mutex.protect mu (fun () ->
      if miss.m_generation = !generation then
        match (miss.m_at, Hashtbl.find_opt roots miss.m_key, recorded) with
        | Some (n, digest), _, _ -> attach n digest recorded m
        | None, None, _ ->
          let t, b, c = chain recorded m in
          admit (b, c) (fun () -> Hashtbl.replace roots miss.m_key t)
        | None, Some (Node n), (_, d) :: rest -> attach n d rest m
        | None, Some (Node _), [] | None, Some (Leaf _), _ -> ())
