open Inltune_opt
open Inltune_vm
module Workloads = Inltune_workloads

(* Benchmark measurement: one (benchmark, scenario, platform, heuristic)
   simulation following the paper's two-iteration methodology.

   Every measurement flows through [Fitcache]: a query whose decision
   signature was measured before reuses that result instead of simulating
   again, and a simulation it does run gets the compile-cache keys that let
   its optimizing compiles reuse earlier ones.  "measure.simulations" counts
   the full VM simulations actually performed — the number the tuner bench
   reports caching savings against. *)

type times = {
  running : float;  (* cycles, as float for the fitness arithmetic *)
  total : float;
  compile : float;
  raw : Runner.measurement;
}

let of_measurement m =
  {
    running = Float.of_int m.Runner.running_cycles;
    total = Float.of_int m.Runner.total_cycles;
    compile = Float.of_int m.Runner.first_compile_cycles;
    raw = m;
  }

(* Counters are re-resolved per use (not captured at module init) so they
   stay attached to the registry across [Metric.reset_all]. *)
let bump name = Inltune_obs.Metric.incr (Inltune_obs.Metric.counter name)

(* One path whether or not the profiler is on ([Prof.span]'s disabled path
   is one atomic load).  Profiled, the decision signature lands in the
   nested "fitness.signature" span and simulation time in the nested
   "vm.*" spans, so the "fitness.eval" span's self time is the rest of the
   Fitcache overhead (lookup, store) plus VM set-up, and a per-evaluation
   breakdown event splits wall time into simulate vs. cache bookkeeping. *)
let run ?(iterations = 3) ?(inline_enabled = true) ?(plan = Plan.default) ~scenario ~platform
    ~heuristic bm =
  let module Prof = Inltune_obs.Prof in
  let module Trace = Inltune_obs.Trace in
  let module Event = Inltune_obs.Event in
  let prog = Workloads.Suites.program bm in
  let profiled = Prof.enabled () in
  let sim_wall = ref 0.0 and wall = ref 0.0 in
  let simulate ~code_keys =
    bump "measure.simulations";
    let t0 = if profiled then Trace.now () else 0.0 in
    let cfg = Machine.config ~inline_enabled ~plan scenario heuristic in
    let m = Runner.measure ~iterations ?code_keys cfg platform prog in
    if profiled then sim_wall := Trace.now () -. t0;
    m
  in
  let m =
    Prof.span "fitness.eval" ~on_time:(fun dt -> wall := dt) (fun () ->
        Fitcache.lookup_or_simulate ~scenario ~platform ~heuristic ~inline_enabled ~plan
          ~iterations ~program:prog simulate)
  in
  if profiled then begin
    Inltune_obs.Metric.observe (Inltune_obs.Metric.histogram "fitness.eval_us") (!wall *. 1e6);
    if Trace.enabled () then
      Trace.emit "fitness.breakdown"
        ~fields:
          [
            ("prog", Event.Str bm.Workloads.Suites.bname);
            ("scenario", Event.Str (Machine.scenario_name scenario));
            ("simulated", Event.Bool (!sim_wall > 0.0));
            ("wall_us", Event.Float (!wall *. 1e6));
            ("sim_us", Event.Float (!sim_wall *. 1e6));
            ("cache_us", Event.Float (Float.max 0.0 (!wall -. !sim_wall) *. 1e6));
          ]
  end;
  of_measurement m

(* Measurements with the default (Jikes) heuristic are requested constantly —
   every normalized bar divides by one — so memoize the [times] value itself
   (callers rely on physical sharing).  A miss routes through {!run}, i.e.
   through [Fitcache]: even a first-time call here avoids the simulation
   when some other heuristic with the same decision signature (or a loaded
   --fitness-cache file) already measured it, and two domains racing on the
   same key both get the same deterministic result.  The memo key includes
   [inline_enabled] (pinned true here) so it can never alias a
   differently-configured measurement; the memo_hits/memo_misses counters
   report this table's outcomes exactly. *)
let default_cache : (string, times) Hashtbl.t = Hashtbl.create 64
let default_cache_mu = Mutex.create ()

let run_default ?(iterations = 3) ~scenario ~platform bm =
  let key =
    Printf.sprintf "%s/%s/%s/%d/%b" bm.Workloads.Suites.bname
      (Machine.scenario_name scenario) platform.Platform.pname iterations true
  in
  let cached =
    Mutex.lock default_cache_mu;
    let c = Hashtbl.find_opt default_cache key in
    Mutex.unlock default_cache_mu;
    c
  in
  match cached with
  | Some t ->
    bump "measure.memo_hits";
    t
  | None ->
    bump "measure.memo_misses";
    let t = run ~iterations ~scenario ~platform ~heuristic:Heuristic.default bm in
    Mutex.lock default_cache_mu;
    let t =
      match Hashtbl.find_opt default_cache key with
      | Some existing -> existing
      | None ->
        Hashtbl.add default_cache key t;
        t
    in
    Mutex.unlock default_cache_mu;
    t

(* The Fig. 1 baseline: same scenario, inlining disabled entirely. *)
let run_no_inlining ?(iterations = 3) ~scenario ~platform bm =
  run ~iterations ~inline_enabled:false ~scenario ~platform ~heuristic:Heuristic.never bm
