(* Per-layer metrics of the traced run, computed from the recorded spans.

   Every workload reports every metric; a layer the workload bypasses reads
   0.  Replay sums cover the replayed sample, which is the same size on every
   run of a workload, so they compare across commits but not across
   workloads. *)

module Stats = Inltune_support.Stats

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let passes =
  [
    "inline"; "inline_leaves"; "inline_hot"; "inline_region"; "guarded_devirt"; "constprop";
    "copyprop"; "cse"; "dce"; "cleanup";
  ]

let ratio a b = if b > 0.0 then a /. b else 0.0
let median = function [] -> 0.0 | l -> Stats.percentile (Array.of_list l) 50.0
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* [children p name]: the spans named [name] whose parent is [p]. *)
let children () =
  let by_parent = Hashtbl.create 4096 in
  List.iter (fun (s : Spans.t) -> Hashtbl.add by_parent s.Spans.parent s) (Spans.all ());
  fun (p : Spans.t) name ->
    List.filter (fun (s : Spans.t) -> s.Spans.name = name) (Hashtbl.find_all by_parent p.Spans.id)

let opt_metrics () =
  List.concat_map
    (fun p ->
      let spans = Spans.named ("opt." ^ p) in
      let s = sum Spans.dur spans in
      let size_in = sum (fun sp -> Spans.attr sp "size_in") spans in
      [
        m ("opt." ^ p ^ ".s") "s" s;
        m ("opt." ^ p ^ ".ns_per_instr") "ns/instr" (ratio (s *. 1e9) size_in);
        m ("opt." ^ p ^ ".size_out") "count" (sum (fun sp -> Spans.attr sp "size_out") spans);
      ])
    passes

(* Compile self times: a replayed compile's span minus the parts of it the
   replay timed separately (the pipeline, register allocation, lowering). *)
let compile_metrics () =
  let children = children () in
  let replays = Spans.named "vm.compile.replay" in
  let d p name = sum Spans.dur (children p name) in
  let self tier f = sum f (List.filter (fun r -> Spans.attr r "tier" = tier) replays) in
  let baseline = self 0.0 (fun r -> d r "vm.compile.baseline" -. d r "vm.lower") in
  let opt =
    self 1.0 (fun r -> d r "vm.compile.opt" -. d r "opt.pipeline" -. d r "vm.regalloc" -. d r "vm.lower")
  in
  let compiles = Spans.named "vm.compile.baseline" @ Spans.named "vm.compile.opt" in
  let sims = Spans.named "vm.simulate" in
  [
    m "vm.compile.baseline_s" "s" (Float.max 0.0 baseline);
    m "vm.compile.opt_s" "s" (Float.max 0.0 opt);
    m "vm.regalloc_s" "s" (Spans.total "vm.regalloc");
    m "vm.lower_s" "s" (Spans.total "vm.lower");
    m "vm.compiles" "count" (Float.of_int (List.length replays));
    m "vm.compile_words_per_instr" "words/instr"
      (ratio (sum (fun s -> Spans.attr s "words") compiles) (sum (fun s -> Spans.attr s "instrs") compiles));
    m "vm.compile_share" "ratio" (ratio (sum Spans.dur compiles) (sum Spans.dur sims));
  ]

(* Execute-only iterations: those that compiled nothing. *)
let execute_metrics () =
  let exec = List.filter (fun s -> Spans.attr s "compile_cycles" = 0.0) (Spans.named "vm.iteration") in
  let t = sum Spans.dur exec and steps = sum (fun s -> Spans.attr s "steps") exec in
  let sims = Spans.named "vm.simulate" in
  [
    m "vm.execute_s" "s" t;
    m "vm.execute_share" "ratio" (ratio t (sum Spans.dur sims));
    m "vm.steps_per_s" "1/s" (ratio steps t);
    m "vm.words_per_step" "words/step" (ratio (sum (fun s -> Spans.attr s "words") exec) steps);
    m "vm.icache_miss_ratio" "ratio"
      (ratio (sum (fun s -> Spans.attr s "icache_misses") sims) (sum (fun s -> Spans.attr s "icache_accesses") sims));
  ]

(* The fitness cache as the replay saw it: signature time, and the lookup's
   own cost (its span minus the simulation thunk inside it). *)
let fitcache_metrics () =
  let children = children () in
  let lookups = Spans.named "core.fitcache.lookup" in
  [
    m "core.fitcache.sig_s" "s" (Spans.total "core.fitcache.signature");
    m "core.fitcache.overhead_s" "s"
      (sum (fun l -> Spans.dur l -. sum Spans.dur (children l "vm.simulate")) lookups);
  ]

(* What the traced search itself recorded. *)
type search = {
  cells : int;
  sims : int;  (* distinct keys simulated: the cache's size afterwards *)
  misses : int;  (* cells that simulated, both sides of a race included *)
  hit_ms : float list;
  miss_ms : float list;
  evaluations : int;
  pool : (string * int) list;  (* busy_ns, idle_ns, stolen deltas *)
}

let search_metrics s =
  let ga = Spans.named "ga.run" in
  let ga_self = sum Spans.dur ga -. Spans.covered (Spans.named "core.cell") in
  let pool k = Float.of_int (Option.value ~default:0 (List.assoc_opt k s.pool)) in
  let busy = pool "busy_ns" and idle = pool "idle_ns" in
  [
    m "core.cells" "count" (Float.of_int s.cells);
    m "core.sims" "count" (Float.of_int s.sims);
    m "core.sims_raced" "count" (Float.of_int (max 0 (s.misses - s.sims)));
    m "core.fitcache.hit_ratio" "ratio" (ratio (Float.of_int (s.cells - s.misses)) (Float.of_int s.cells));
    m "core.cell_hit_ms" "ms" (median s.hit_ms);
    m "core.cell_miss_ms" "ms" (median s.miss_ms);
    m "ga.self_s" "s" (if ga = [] then 0.0 else Float.max 0.0 ga_self);
    m "ga.evaluations" "count" (Float.of_int s.evaluations);
    m "support.pool.busy_frac" "ratio" (ratio busy (busy +. idle));
    m "support.pool.idle_s" "s" (idle /. 1e9);
    m "support.pool.stolen" "count" (pool "stolen");
  ]

let all ~gen_s ~trace_overhead search =
  [ m "workloads.gen_s" "s" gen_s ]
  @ opt_metrics () @ compile_metrics () @ execute_metrics () @ fitcache_metrics ()
  @ search_metrics search
  @ [ m "obs.trace_overhead" "ratio" trace_overhead ]
