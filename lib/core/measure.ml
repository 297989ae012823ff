open Inltune_opt
open Inltune_vm
module Workloads = Inltune_workloads

(* Benchmark measurement: one (benchmark, scenario, platform, decider)
   simulation following the paper's two-iteration methodology.  The decider
   is the paper's heuristic, a GP tree or a stored policy; all of them take
   the one path below.

   Every measurement flows through [Fitcache]: a query whose decision
   signature was measured before reuses that result instead of simulating
   again, and a simulation it does run gets the compile-cache keys that let
   its optimizing compiles reuse earlier ones.  Under the adaptive
   scenarios a miss first walks [Trajcache], which answers it when another
   genome's recompiles already produced the same code.
   "measure.simulations" counts the full VM simulations actually performed,
   the number caching savings are measured against. *)

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

module Metric = Inltune_obs.Metric

let simulations = Metric.handle "measure.simulations"
let memo_hits = Metric.handle "measure.memo_hits"
let memo_misses = Metric.handle "measure.memo_misses"

(* The VM configuration a decider runs under: a heuristic in its own field,
   a policy through the per-compile factory (built once per measurement for
   a static one).  Second, for a decider that reads no live profile, the
   [Decider.t] every optimizing compile under that configuration builds. *)
let config ~inline_enabled ~plan scenario decider prog =
  match decider with
  | Fitcache.Heuristic h ->
    (Machine.config ~inline_enabled ~plan scenario h, Some (Decider.Heuristic h))
  | Fitcache.Static { policy; _ } ->
    let p = policy prog in
    ( Machine.config ~inline_enabled ~plan ~policy_factory:(fun _ -> p) scenario
        Heuristic.default,
      Some (Decider.Policy p) )
  | Fitcache.Profiled { factory; _ } ->
    ( Machine.config ~inline_enabled ~plan ~policy_factory:(factory prog) scenario
        Heuristic.default,
      None )

(* The trajectory cache answers fitness-cache misses under the adaptive
   scenarios on the flat interpreter; [Opt] keeps its exact "w:" walk. *)
let trajectories_apply scenario =
  scenario <> Machine.Opt && Fitcache.enabled () && not (Machine.reference_enabled ())

(* One path for every decider, whether or not the profiler is on
   ([Prof.span]'s disabled path is one atomic load).  Profiled, the decision
   signature lands in the nested "fitness.signature" span and simulation
   time in the nested "vm.*" spans, so the "fitness.eval" span's self time
   is the rest of the Fitcache overhead (lookup, store) plus VM set-up, and
   a per-evaluation breakdown event splits wall time into simulate vs.
   cache bookkeeping. *)
let run_decider ?(iterations = 3) ?(inline_enabled = true) ?(plan = Plan.default) ~scenario
    ~platform ~decider bm =
  let module Prof = Inltune_obs.Prof in
  let module Trace = Inltune_obs.Trace in
  let module Event = Inltune_obs.Event in
  let prog = Workloads.Suites.program bm in
  let profiled = Prof.enabled () in
  let sim_wall = ref 0.0 and wall = ref 0.0 in
  let simulate ~code_keys =
    let cfg, recompile_decider = config ~inline_enabled ~plan scenario decider prog in
    let run ?precomputed ?record () =
      Metric.bump simulations;
      let t0 = if profiled then Trace.now () else 0.0 in
      let m = Runner.measure ~iterations ?code_keys ?precomputed ?record cfg platform prog in
      if profiled then sim_wall := Trace.now () -. t0;
      m
    in
    match recompile_decider with
    | Some decider when trajectories_apply scenario -> (
      match
        Prof.span "fitness.trajectory" (fun () ->
            Trajcache.find cfg platform ~iterations ~decider prog)
      with
      | Trajcache.Hit m -> m
      | Trajcache.Miss miss ->
        let recorded = ref [] in
        let m =
          run ~precomputed:(Trajcache.outputs miss) ~record:(fun r -> recorded := r :: !recorded) ()
        in
        Trajcache.insert miss (List.rev !recorded) m;
        m)
    | Some _ | None -> run ()
  in
  let m =
    Prof.span "fitness.eval" ~on_time:(fun dt -> wall := dt) (fun () ->
        Fitcache.lookup_or_simulate ~scenario ~platform ~decider ~inline_enabled ~plan
          ~iterations ~program:prog simulate)
  in
  if profiled then begin
    Metric.observe (Metric.histogram "fitness.eval_us") (!wall *. 1e6);
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

let run ?iterations ?inline_enabled ?plan ~scenario ~platform ~heuristic bm =
  run_decider ?iterations ?inline_enabled ?plan ~scenario ~platform
    ~decider:(Fitcache.Heuristic heuristic) bm

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
    Metric.bump memo_hits;
    t
  | None ->
    Metric.bump memo_misses;
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
