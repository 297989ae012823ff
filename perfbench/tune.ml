(* The two tuning-loop workloads: a whole GA search is one timed run.

   The untimed warm-up run fills every per-process memo the search reads
   (generated programs, the default-heuristic baselines, the fitness cache's
   per-program signature data).  Each timed run then starts from that same
   state with an empty in-memory fitness cache and, when the workload uses
   the on-disk tier, a fresh cache file. *)

open Inltune_core
open Inltune_vm
module Ga = Inltune_ga
module W = Inltune_workloads
module Rng = Inltune_support.Rng
module Stats = Inltune_support.Stats
module Metric = Inltune_obs.Metric

type t = {
  name : string;
  id : Tuner.scenario_id;
  suite : W.Suites.benchmark list;
  plan_genome : bool;  (* [Tuner.tune_plan]: heuristic + plan genes *)
  budget : Tuner.budget;
  domains : int;  (* two: the caller plus one pool worker *)
  cache_file : string option;  (* on-disk fitness-cache tier, fresh per run *)
}

let iterations = 3

(* The search budget and seed are pinned: the GA's trajectory decides how
   many simulations a search makes, and across GA seeds that count (and the
   run time) varies by more than a third, which no bound could absorb. *)
let budget = { Tuner.pop = 16; gens = 10; seed = 42 }

let opt_spec =
  {
    name = "tune-opt-spec";
    id = Tuner.Opt_tot_x86;
    suite = W.Suites.spec;
    plan_genome = false;
    budget;
    domains = 2;
    cache_file = None;
  }

(* One corpus program per family, drawn with a pinned seed for the same
   reason as the GA seed: different draws cost different amounts. *)
let corpus_draw ~seed =
  let rng = Rng.create seed in
  List.map
    (fun (f : W.Corpus.family) ->
      let name = Printf.sprintf "corpus_%s%02d" f.W.Corpus.fname (Rng.int rng f.W.Corpus.fcount) in
      Option.get (W.Corpus.find_opt name))
    W.Corpus.families

let adapt_corpus ~cache_file =
  {
    name = "tune-adapt-corpus";
    id = Tuner.Adapt_x86;
    suite = corpus_draw ~seed:7;
    plan_genome = true;
    budget;
    domains = 2;
    cache_file = Some cache_file;
  }

let spec t = Tuner.spec_of t.id

let decode t g =
  if t.plan_genome then Params.split_plan_genome g
  else (Inltune_opt.Heuristic.of_array g, Inltune_opt.Plan.default)

(* --- set-up --------------------------------------------------------------- *)

(* What a search pays before its first generation: generate and validate
   every suite program (bypassing the per-process program memo), measure
   each one's default-heuristic baseline (bypassing the baseline memo), and
   spawn and join a one-worker pool. *)
let setup t =
  let sp = spec t in
  let programs =
    Spans.with_span "workloads.gen" (fun _ ->
        List.map
          (fun (bm : W.Suites.benchmark) ->
            let p = bm.W.Suites.generate () in
            Inltune_jir.Validate.check_exn p;
            p)
          t.suite)
  in
  let default = Machine.config sp.Tuner.scenario Inltune_opt.Heuristic.default in
  List.iter
    (fun p -> ignore (Runner.measure ~iterations default sp.Tuner.platform p : Runner.measurement))
    programs;
  Inltune_support.Pool.shutdown (Inltune_support.Pool.create ~domains:1 ())

(* --- one search -------------------------------------------------------------- *)

let reset t =
  Fitcache.clear ();
  match t.cache_file with
  | None -> ()
  | Some f ->
    Fitcache.set_file None;
    if Sys.file_exists f then Sys.remove f;
    Fitcache.set_file (Some f)

let detach t = if t.cache_file <> None then Fitcache.set_file None

let tune t =
  if t.plan_genome then
    (Tuner.tune_plan ~budget:t.budget ~suite:t.suite ~domains:t.domains t.id).Tuner.p_ga
  else (Tuner.tune ~budget:t.budget ~suite:t.suite ~domains:t.domains t.id).Tuner.ga

(* What a search must reproduce: best genome, best fitness and the
   per-generation history, floats printed with all their digits. *)
type fingerprint = { best : int array; best_fitness : string; history : string list }

let g17 = Printf.sprintf "%.17g"

let fingerprint (r : Ga.Evolve.result) =
  {
    best = r.Ga.Evolve.best;
    best_fitness = g17 r.Ga.Evolve.best_fitness;
    history =
      List.map
        (fun (p : Ga.Evolve.progress) ->
          Printf.sprintf "%d %s %s %d" p.Ga.Evolve.generation (g17 p.Ga.Evolve.best_fitness)
            (g17 p.Ga.Evolve.mean_fitness) p.Ga.Evolve.evaluations)
        r.Ga.Evolve.history;
  }

let fingerprint_to_json f =
  let module J = Inltune_obs.Json in
  J.Obj
    [
      ("best", J.List (Array.to_list (Array.map (fun g -> J.Num (Float.of_int g)) f.best)));
      ("best_fitness", J.Str f.best_fitness);
      ("history", J.List (List.map (fun h -> J.Str h) f.history));
    ]

let fingerprint_of_json j =
  let module J = Inltune_obs.Json in
  let ( let* ) = Option.bind in
  let list k = match J.member k j with Some (J.List l) -> Some l | _ -> None in
  let* best = list "best" in
  let* best_fitness = Option.bind (J.member "best_fitness" j) J.to_string in
  let* history = list "history" in
  Some
    {
      best = Array.of_list (List.filter_map J.to_int best);
      best_fitness;
      history = List.filter_map J.to_string history;
    }

(* --- from-scratch verification ----------------------------------------------------- *)

(* The evaluation a user runs after tuning: the tuned and the default
   configuration on every suite program, each a cache-free [Runner.measure].
   Runs every job [passes] times, each pass in a seeded order, and returns
   the checks attempted and the failures.  Every simulation's
   (ret, out_hash) is checked against the reference interpreter, every pass
   must reproduce the first pass's measurements, and the tuned fitness
   recomputed from them must equal the search's best fitness bit for bit. *)
let verify t (r : Ga.Evolve.result) ~rng ~passes =
  let sp = spec t in
  let heuristic, plan = decode t r.Ga.Evolve.best in
  let tuned = Machine.config ~plan sp.Tuner.scenario heuristic in
  let default = Machine.config sp.Tuner.scenario Inltune_opt.Heuristic.default in
  let jobs =
    Array.of_list
      (List.concat_map
         (fun bm -> [ (bm, `Tuned, tuned); (bm, `Default, default) ])
         t.suite)
  in
  let first = Hashtbl.create 16 in
  let attempted = ref 0 and failed = ref [] in
  let pass () =
    let order = Array.copy jobs in
    Rng.shuffle_in_place rng order;
    Array.iter
      (fun ((bm : W.Suites.benchmark), which, cfg) ->
        let prog = W.Suites.program bm in
        let m = Runner.measure ~iterations cfg sp.Tuner.platform prog in
        let key = (bm.W.Suites.bname, which) in
        incr attempted;
        let ok_ref = (m.Runner.ret, m.Runner.out_hash) = Replay.reference sp.Tuner.platform prog in
        let ok_rep =
          match Hashtbl.find_opt first key with
          | None -> Hashtbl.replace first key m; true
          | Some m0 -> m0 = m
        in
        if not (ok_ref && ok_rep) then
          failed := Printf.sprintf "%s: verification simulation mismatch" bm.W.Suites.bname :: !failed)
      order
  in
  for _ = 1 to passes do pass () done;
  let scores =
    List.map
      (fun (bm : W.Suites.benchmark) ->
        let times which = Measure.of_measurement (Hashtbl.find first (bm.W.Suites.bname, which)) in
        Objective.perf sp.Tuner.goal ~t:(times `Tuned) ~default:(times `Default))
      t.suite
  in
  let fitness = Stats.geomean (Array.of_list scores) in
  incr attempted;
  if g17 fitness <> g17 r.Ga.Evolve.best_fitness then
    failed :=
      Printf.sprintf "recomputed best fitness %s, search reported %s" (g17 fitness)
        (g17 r.Ga.Evolve.best_fitness)
      :: !failed;
  (!attempted, !failed)

(* --- traced search ------------------------------------------------------------ *)

type cell = { genome : int array; bm : W.Suites.benchmark; c0 : float; c1 : float }

let counter name = Metric.value (Metric.counter name)

(* [Evolve.run] with the params, guard and fitness [Tuner.tune]/[tune_plan]
   use, through the objective's own grid with every cell spanned.  Returns
   the result, the recorded cells and the pool counters' deltas. *)
let traced_search t =
  let sp = spec t in
  let scenario = sp.Tuner.scenario and platform = sp.Tuner.platform and goal = sp.Tuner.goal in
  let suite = t.suite in
  let grid, fitness, gspec =
    if t.plan_genome then
      ( Objective.plan_genome_grid ~suite ~scenario ~platform ~goal,
        Objective.plan_genome_fitness ~suite ~scenario ~platform ~goal,
        Params.plan_genome_spec )
    else
      ( Objective.genome_grid ~suite ~scenario ~platform ~goal (),
        Objective.genome_fitness ?plan:None ~suite ~scenario ~platform ~goal,
        Params.genome_spec )
  in
  let params =
    {
      Ga.Evolve.default_params with
      Ga.Evolve.pop_size = t.budget.Tuner.pop;
      generations = t.budget.Tuner.gens;
      seed = t.budget.Tuner.seed;
      domains = Some t.domains;
    }
  in
  let cells = ref [] and mu = Mutex.create () in
  let pool_counters = [ ("busy_ns", "pool.busy_ns"); ("idle_ns", "pool.idle_ns"); ("stolen", "pool.tasks_stolen") ] in
  let pool0 = List.map (fun (_, c) -> counter c) pool_counters in
  let r =
    Spans.with_span "ga.run" (fun gid ->
        let grid_cell g ((bm, _) as ax) =
          let c0 = Spans.now () in
          let v = grid.Ga.Evolve.grid_cell g ax in
          let c = { genome = Array.copy g; bm; c0; c1 = Spans.now () } in
          Spans.record ~parent:gid "core.cell" c0 c.c1;
          Mutex.lock mu;
          cells := c :: !cells;
          Mutex.unlock mu;
          v
        in
        Ga.Evolve.run ~guard:(Tuner.guard ~max_retries:1) ~grid:{ grid with Ga.Evolve.grid_cell }
          ~spec:gspec ~params ~fitness ())
  in
  let pool = List.map2 (fun (name, c) v0 -> (name, counter c - v0)) pool_counters pool0 in
  (r, List.rev !cells, pool)

(* A cell missed the fitness cache iff it started before the first cell
   with its key finished (and stored the measurement); two domains can both
   miss one key.  Returns each cell with its key and verdict. *)
let classify t cells =
  let sp = spec t in
  let keyed =
    List.map
      (fun c ->
        let heuristic, plan = decode t c.genome in
        ( c,
          Fitcache.key ~scenario:sp.Tuner.scenario ~platform:sp.Tuner.platform ~heuristic
            ~inline_enabled:true ~plan ~iterations (W.Suites.program c.bm) ))
      cells
  in
  let stored = Hashtbl.create 256 in
  List.iter
    (fun (c, key) ->
      match Hashtbl.find_opt stored key with
      | Some t1 when t1 <= c.c1 -> ()
      | _ -> Hashtbl.replace stored key c.c1)
    keyed;
  List.map (fun (c, key) -> (c, key, c.c0 < Hashtbl.find stored key)) keyed

(* Replay a seeded sample of the distinct keys that missed, layer by layer. *)
let replay_misses t ~rng ~sample classified =
  let sp = spec t in
  let firsts = Hashtbl.create 64 in
  List.iter
    (fun (c, key, miss) -> if miss && not (Hashtbl.mem firsts key) then Hashtbl.add firsts key c)
    classified;
  let keys = Array.of_list (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) firsts [])) in
  Rng.shuffle_in_place rng keys;
  let chosen = Array.sub keys 0 (min sample (Array.length keys)) in
  Fitcache.clear ();
  Array.iter
    (fun key ->
      let c = Hashtbl.find firsts key in
      let heuristic, plan = decode t c.genome in
      Replay.cell ~scenario:sp.Tuner.scenario ~platform:sp.Tuner.platform ~heuristic ~plan
        ~iterations (W.Suites.program c.bm))
    chosen;
  Array.length chosen
