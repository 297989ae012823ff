(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and runs the ablation, extension and identity protocols called
   out in DESIGN.md and EXPERIMENTS.md.  Timing the simulator is the repo
   benchmark's job (perfbench/), not this harness's.

       dune exec bench/main.exe                 # everything
       dune exec bench/main.exe fig5            # one experiment
       dune exec bench/main.exe ablations       # just the ablations
       dune exec bench/main.exe policy          # GA-vs-learned policy comparison
       dune exec bench/main.exe gp              # GP structure search -> BENCH_gp.json
       dune exec bench/main.exe tuner           # fitness-cache off/on protocol
       dune exec bench/main.exe passes          # plan-interpreter identity + plan GA
       dune exec bench/main.exe inliners        # strategy plans vs default -> BENCH_inliners.json
       dune exec bench/main.exe serve           # daemon under load -> BENCH_serve.json

   Environment knobs (for bigger GA budgets):
       INLTUNE_POP (default 16), INLTUNE_GENS (default 12),
       INLTUNE_SEED (default 42). *)

open Inltune_core
open Inltune_vm
open Inltune_opt
module W = Inltune_workloads
module Table = Inltune_support.Table
module Stats = Inltune_support.Stats

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

(* Bench records are one JSON object per file, written through [Json.encode]
   so names and tree texts are escaped.  [fixed d v] is [v] at the [d]
   decimals the record reports. *)
module Json = Inltune_obs.Json

let fixed d v = Json.Num (Float.of_string (Printf.sprintf "%.*f" d v))
let int n = Json.Num (Float.of_int n)
let names bms = Json.List (List.map (fun bm -> Json.Str bm.W.Suites.bname) bms)

let write_record path fields =
  let oc = open_out path in
  output_string oc (Json.encode (Json.Obj fields));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n\n" path

let budget () =
  {
    Tuner.pop = env_int "INLTUNE_POP" 16;
    gens = env_int "INLTUNE_GENS" 12;
    seed = env_int "INLTUNE_SEED" 42;
  }

(* ---- Ablation benches (DESIGN.md section 5) ----------------------------- *)

(* Ablation 1: the hot-call-site heuristic path (Fig. 4).  Disabling it under
   Adapt forces the static Fig. 3 tests everywhere. *)
let ablation_hot_path () =
  let t =
    Table.create ~title:"Ablation: Adapt without the hot-call-site heuristic (Fig. 4 path)"
      ~header:[| "benchmark"; "total (hot on)"; "total (hot off)"; "hot-off / hot-on" |]
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
  in
  let ratios =
    List.map
      (fun bm ->
        let p = W.Suites.program bm in
        let on = Runner.measure (Machine.config Machine.Adapt Heuristic.default) Platform.x86 p in
        let off =
          Runner.measure
            (Machine.config ~hot_path_enabled:false Machine.Adapt Heuristic.default)
            Platform.x86 p
        in
        let r = Float.of_int off.Runner.total_cycles /. Float.of_int on.Runner.total_cycles in
        Table.add_row t
          [|
            bm.W.Suites.bname;
            string_of_int on.Runner.total_cycles;
            string_of_int off.Runner.total_cycles;
            Table.fmt_float r;
          |];
        r)
      W.Suites.spec
  in
  Table.add_rule t;
  Table.add_row t
    [| "geomean"; ""; ""; Table.fmt_float (Stats.geomean (Array.of_list ratios)) |];
  Table.print t;
  print_newline ()

(* Ablation 2: inlining's indirect benefit — run the pipeline with the
   dataflow passes disabled so inlining only removes call overhead. *)
let ablation_optimizations () =
  let t =
    Table.create ~title:"Ablation: inlining without post-inline optimization (Opt scenario)"
      ~header:[| "benchmark"; "running (opt on)"; "running (opt off)"; "off / on" |]
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
  in
  let ratios =
    List.map
      (fun bm ->
        let p = W.Suites.program bm in
        let on = Runner.measure (Machine.config Machine.Opt Heuristic.default) Platform.x86 p in
        let off =
          Runner.measure (Machine.config ~optimize:false Machine.Opt Heuristic.default)
            Platform.x86 p
        in
        let r = Float.of_int off.Runner.running_cycles /. Float.of_int on.Runner.running_cycles in
        Table.add_row t
          [|
            bm.W.Suites.bname;
            string_of_int on.Runner.running_cycles;
            string_of_int off.Runner.running_cycles;
            Table.fmt_float r;
          |];
        r)
      W.Suites.spec
  in
  Table.add_rule t;
  Table.add_row t
    [| "geomean"; ""; ""; Table.fmt_float (Stats.geomean (Array.of_list ratios)) |];
  Table.print t;
  print_newline ()

(* Ablation 3: the I-cache model — without it, deeper inlining is
   monotonically better and the Fig. 2 curves lose their knee. *)
let ablation_icache () =
  let t =
    Table.create ~title:"Ablation: jess total time vs depth, with and without the I-cache model"
      ~header:[| "depth"; "icache on (cycles)"; "icache off (cycles)" |]
      ~aligns:[| Table.Right; Table.Right; Table.Right |]
  in
  let p = W.Suites.program (W.Suites.find "jess") in
  List.iter
    (fun d ->
      let h = Heuristic.with_depth Heuristic.default d in
      let on = Runner.measure (Machine.config Machine.Opt h) Platform.x86 p in
      let off =
        Runner.measure (Machine.config ~icache_enabled:false Machine.Opt h) Platform.x86 p
      in
      Table.add_row t
        [|
          string_of_int d;
          string_of_int on.Runner.total_cycles;
          string_of_int off.Runner.total_cycles;
        |])
    [ 0; 1; 2; 4; 6; 8; 10 ];
  Table.print t;
  print_newline ()

(* Ablation 4: GA vs random search at the same evaluation budget. *)
let ablation_ga_vs_random () =
  let suite = [ W.Suites.find "compress"; W.Suites.find "raytrace" ] in
  let fitness =
    Objective.genome_fitness ~suite ~scenario:Machine.Opt ~platform:Platform.x86
      ~goal:Objective.Total
  in
  let params =
    {
      Inltune_ga.Evolve.default_params with
      Inltune_ga.Evolve.pop_size = 10;
      generations = 6;
      seed = 42;
    }
  in
  let ga = Inltune_ga.Evolve.run ~spec:Params.genome_spec ~params ~fitness () in
  let _, random_best =
    Inltune_ga.Evolve.random_search ~spec:Params.genome_spec
      ~budget:ga.Inltune_ga.Evolve.evaluations ~seed:42 ~fitness ()
  in
  let t =
    Table.create ~title:"Ablation: GA vs random search (same evaluation budget)"
      ~header:[| "searcher"; "evaluations"; "best fitness (lower = better)" |]
      ~aligns:[| Table.Left; Table.Right; Table.Right |]
  in
  Table.add_row t
    [|
      "genetic algorithm";
      string_of_int ga.Inltune_ga.Evolve.evaluations;
      Table.fmt_float ~digits:4 ga.Inltune_ga.Evolve.best_fitness;
    |];
  Table.add_row t
    [|
      "random search";
      string_of_int ga.Inltune_ga.Evolve.evaluations;
      Table.fmt_float ~digits:4 random_best;
    |];
  Table.print t;
  print_newline ()

(* Ablation 5: guarded devirtualization under Adapt — monomorphic virtual
   sites become guarded, inlinable static calls. *)
let ablation_guarded_devirt () =
  let t =
    Table.create ~title:"Ablation: Adapt with and without guarded devirtualization"
      ~header:[| "benchmark"; "running (on)"; "running (off)"; "off / on" |]
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
  in
  List.iter
    (fun name ->
      let p = W.Suites.program (W.Suites.find name) in
      let on = Runner.measure (Machine.config Machine.Adapt Heuristic.default) Platform.x86 p in
      let off =
        Runner.measure
          (Machine.config ~guarded_devirt_enabled:false Machine.Adapt Heuristic.default)
          Platform.x86 p
      in
      Table.add_row t
        [|
          name;
          string_of_int on.Runner.running_cycles;
          string_of_int off.Runner.running_cycles;
          Table.fmt_float
            (Float.of_int off.Runner.running_cycles /. Float.of_int on.Runner.running_cycles);
        |])
    [ "ipsixql"; "pseudojbb"; "jess"; "pmd" ];
  Table.print t;
  print_newline ()

let ablations () =
  print_endline "==== Ablation benches (DESIGN.md section 5) ====\n";
  ablation_hot_path ();
  ablation_optimizations ();
  ablation_icache ();
  ablation_guarded_devirt ();
  ablation_ga_vs_random ()

(* ---- Extensions: related-work baselines --------------------------------- *)

(* The knapsack oracle of Arnold et al. (paper Related Work [3]): full-run
   profile knowledge, greedy edge selection under a 10% code-growth budget.
   Compare running time against no inlining and the default heuristic. *)
let knapsack_baseline () =
  let t =
    Table.create
      ~title:
        "Knapsack oracle (Arnold et al. [3], 10% growth budget) vs heuristics — running time, Opt x86"
      ~header:
        [| "benchmark"; "no-inline"; "default"; "knapsack"; "knapsack vs no-inline"; "edges" |]
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right |]
  in
  let ratios =
    List.map
      (fun bm ->
        let p = W.Suites.program bm in
        let off =
          Runner.measure (Machine.config ~inline_enabled:false Machine.Opt Heuristic.never)
            Platform.x86 p
        in
        let def = Runner.measure (Machine.config Machine.Opt Heuristic.default) Platform.x86 p in
        let plan, kn = Knapsack.measure Platform.x86 bm in
        let r = kn.Measure.running /. Float.of_int off.Runner.running_cycles in
        Table.add_row t
          [|
            bm.W.Suites.bname;
            string_of_int off.Runner.running_cycles;
            string_of_int def.Runner.running_cycles;
            Printf.sprintf "%.0f" kn.Measure.running;
            Table.fmt_float r;
            Printf.sprintf "%d/%d" plan.Knapsack.chosen plan.Knapsack.candidates;
          |];
        r)
      W.Suites.spec
  in
  Table.add_rule t;
  Table.add_row t
    [| "geomean"; ""; ""; ""; Table.fmt_float (Stats.geomean (Array.of_list ratios)); "" |];
  Table.print t;
  print_newline ()

(* Search-algorithm shootout on the real tuning objective: GA vs hill
   climbing vs simulated annealing vs random search, equal budgets. *)
let search_comparison () =
  let suite = [ W.Suites.find "compress"; W.Suites.find "raytrace"; W.Suites.find "db" ] in
  let fitness =
    Objective.genome_fitness ~suite ~scenario:Machine.Opt ~platform:Platform.x86
      ~goal:Objective.Total
  in
  let params =
    {
      Inltune_ga.Evolve.default_params with
      Inltune_ga.Evolve.pop_size = 10;
      generations = 8;
      seed = 42;
    }
  in
  let ga = Inltune_ga.Evolve.run ~spec:Params.genome_spec ~params ~fitness () in
  let budget = ga.Inltune_ga.Evolve.evaluations in
  let hc =
    Inltune_ga.Localsearch.hill_climb ~spec:Params.genome_spec ~budget ~seed:42 ~fitness ()
  in
  let sa = Inltune_ga.Localsearch.anneal ~spec:Params.genome_spec ~budget ~seed:42 ~fitness () in
  let _, rs =
    Inltune_ga.Evolve.random_search ~spec:Params.genome_spec ~budget ~seed:42 ~fitness ()
  in
  let t =
    Table.create ~title:"Search algorithms on the tuning objective (equal budgets)"
      ~header:[| "searcher"; "evaluations"; "best fitness"; "best heuristic" |]
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Left |]
  in
  Table.add_row t
    [|
      "genetic algorithm"; string_of_int budget;
      Table.fmt_float ~digits:4 ga.Inltune_ga.Evolve.best_fitness;
      Heuristic.to_string (Heuristic.of_array ga.Inltune_ga.Evolve.best);
    |];
  Table.add_row t
    [|
      "hill climbing"; string_of_int hc.Inltune_ga.Localsearch.evaluations;
      Table.fmt_float ~digits:4 hc.Inltune_ga.Localsearch.best_fitness;
      Heuristic.to_string (Heuristic.of_array hc.Inltune_ga.Localsearch.best);
    |];
  Table.add_row t
    [|
      "simulated annealing"; string_of_int sa.Inltune_ga.Localsearch.evaluations;
      Table.fmt_float ~digits:4 sa.Inltune_ga.Localsearch.best_fitness;
      Heuristic.to_string (Heuristic.of_array sa.Inltune_ga.Localsearch.best);
    |];
  Table.add_row t
    [| "random search"; string_of_int budget; Table.fmt_float ~digits:4 rs; "" |];
  Table.print t;
  print_newline ()

(* The multi-level recompilation ladder (baseline -> O1 -> O2), an extension
   mirroring Jikes RVM's real optimization levels: compare against the
   paper's two-level Adapt on both time metrics. *)
let ladder_comparison () =
  let t =
    Table.create ~title:"Extension: two-level Adapt vs three-level Ladder (default heuristic, x86)"
      ~header:
        [| "benchmark"; "total adapt"; "total ladder"; "ladder/adapt"; "run adapt"; "run ladder" |]
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right |]
  in
  let ratios =
    List.map
      (fun bm ->
        let p = W.Suites.program bm in
        let a = Runner.measure (Machine.config Machine.Adapt Heuristic.default) Platform.x86 p in
        let l = Runner.measure (Machine.config Machine.Ladder Heuristic.default) Platform.x86 p in
        let r = Float.of_int l.Runner.total_cycles /. Float.of_int a.Runner.total_cycles in
        Table.add_row t
          [|
            bm.W.Suites.bname;
            string_of_int a.Runner.total_cycles;
            string_of_int l.Runner.total_cycles;
            Table.fmt_float r;
            string_of_int a.Runner.running_cycles;
            string_of_int l.Runner.running_cycles;
          |];
        r)
      W.Suites.all
  in
  Table.add_rule t;
  Table.add_row t
    [| "geomean"; ""; ""; Table.fmt_float (Stats.geomean (Array.of_list ratios)); ""; "" |];
  Table.print t;
  print_newline ()

(* Input-size crossover: the paper's motivation section argues Opt suits
   long-running programs and Adapt short ones.  Sweep the input scale: the
   winner flips per program as the running phase grows relative to the fixed
   compile work. *)
let scaling_crossover () =
  let t =
    Table.create
      ~title:"Extension: Opt vs Adapt total time across input scales (winner per program)"
      ~header:[| "scale (%)"; "compress Opt"; "compress Adapt"; "compress"; "jess Opt"; "jess Adapt"; "jess" |]
      ~aligns:
        [| Table.Right; Table.Right; Table.Right; Table.Left; Table.Right; Table.Right; Table.Left |]
  in
  List.iter
    (fun scale ->
      let total name scenario =
        let p = W.Suites.program_scaled (W.Suites.find name) ~scale in
        (Runner.measure (Machine.config scenario Heuristic.default) Platform.x86 p)
          .Runner.total_cycles
      in
      let co = total "compress" Machine.Opt and ca = total "compress" Machine.Adapt in
      let jo = total "jess" Machine.Opt and ja = total "jess" Machine.Adapt in
      Table.add_row t
        [|
          string_of_int scale;
          string_of_int co; string_of_int ca; (if co < ca then "Opt" else "Adapt");
          string_of_int jo; string_of_int ja; (if jo < ja then "Opt" else "Adapt");
        |])
    [ 10; 25; 50; 100; 200; 400 ];
  Table.print t;
  print_newline ()

(* GA stability: the tuned result should not hinge on one lucky seed. *)
let ga_stability () =
  let suite = [ W.Suites.find "compress"; W.Suites.find "raytrace"; W.Suites.find "db" ] in
  let fitness =
    Objective.genome_fitness ~suite ~scenario:Machine.Opt ~platform:Platform.x86
      ~goal:Objective.Total
  in
  let fits =
    List.map
      (fun seed ->
        let params =
          {
            Inltune_ga.Evolve.default_params with
            Inltune_ga.Evolve.pop_size = 10;
            generations = 6;
            seed;
          }
        in
        (Inltune_ga.Evolve.run ~spec:Params.genome_spec ~params ~fitness ())
          .Inltune_ga.Evolve.best_fitness)
      [ 1; 2; 3; 4; 5 ]
  in
  let arr = Array.of_list fits in
  let t =
    Table.create ~title:"Extension: GA stability across seeds (Opt:Tot objective, 3 benchmarks)"
      ~header:[| "seed"; "best fitness" |]
      ~aligns:[| Table.Right; Table.Right |]
  in
  List.iteri
    (fun i f -> Table.add_row t [| string_of_int (i + 1); Table.fmt_float ~digits:4 f |])
    fits;
  Table.add_rule t;
  Table.add_row t
    [| "mean +- stddev";
       Printf.sprintf "%.4f +- %.4f" (Stats.mean arr) (Stats.stddev arr) |];
  Table.print t;
  print_newline ()

let extensions () =
  print_endline "==== Extension benches (related-work baselines) ====\n";
  knapsack_baseline ();
  ladder_comparison ();
  scaling_crossover ();
  ga_stability ();
  search_comparison ()

(* ---- Learned-policy comparison ------------------------------------------ *)

module P = Inltune_policy
module Gp = Inltune_gp

(* The GA-vs-learned protocol: tune and train on SPECjvm98, then measure
   default vs GA-tuned vs learned CART policy on both suites.  Besides the
   printed tables, the per-suite geomean time ratios land in
   BENCH_policy.json so CI and tooling can diff runs without scraping
   tables. *)
(* The shared protocol of the policy and gp benches: GA-tune on SPECjvm98,
   label a flip-oracle dataset there, train CART on it, and evolve a GP
   policy with the dataset as the agreement pre-filter. *)
let train_all_policies () =
  let b = budget () in
  let o = Tuner.tune ~budget:b Tuner.Opt_tot_x86 in
  let cfg = { P.Dataset.default_config with P.Dataset.max_sites = 12 } in
  let examples = P.Dataset.generate cfg W.Suites.spec in
  let training = P.Dataset.to_training examples in
  let tree = P.Cart.train training in
  let gp_params =
    {
      Gp.Evolve.default_params with
      Gp.Evolve.pop_size = b.Tuner.pop;
      generations = b.Tuner.gens;
      seed = b.Tuner.seed;
    }
  in
  let gpr =
    Gp.Evolve.run ~dataset:training ~suite:W.Suites.spec ~scenario:Machine.Opt
      ~platform:Platform.x86 ~goal:Objective.Total ~params:gp_params ()
  in
  Printf.printf "tuned heuristic: %s\n" (Heuristic.to_string o.Tuner.heuristic);
  Printf.printf "dataset: %d examples; CART tree: %d nodes, depth %d\n"
    (List.length examples) (P.Dtree.size tree) (P.Dtree.depth tree);
  Printf.printf "GP best (%d evals, %d cache hits, size %d): %s\n"
    gpr.Gp.Evolve.evaluations gpr.Gp.Evolve.cache_hits (Gp.Tree.size gpr.Gp.Evolve.best)
    (Gp.Tree.to_text gpr.Gp.Evolve.best);
  (o.Tuner.heuristic, tree, gpr)

let policy_systems tuned tree gp_tree =
  let scenario = Machine.Opt and platform = Platform.x86 in
  [
    ("ga", fun bm -> Measure.run ~scenario ~platform ~heuristic:tuned bm);
    ("cart", fun bm -> P.Evaluate.measure ~scenario ~platform (P.Store.Tree tree) bm);
    ( "gp",
      fun bm -> Measure.run_decider ~scenario ~platform ~decider:(Gp.Decode.decider gp_tree) bm );
  ]

(* A record's running and total geomeans: "default" is 1.0 by construction,
   then one entry per (key, system label). *)
let geomeans_json columns geos =
  let geo pick =
    Json.Obj
      (("default", Json.Num 1.0)
      :: List.map (fun (key, label) -> (key, fixed 6 (pick (List.assoc label geos)))) columns)
  in
  [
    ("running", geo (fun g -> g.P.Evaluate.g_running));
    ("total", geo (fun g -> g.P.Evaluate.g_total));
  ]

let policy_comparison () =
  print_endline "==== Learned-policy comparison (default vs GA-tuned vs CART vs GP) ====\n";
  let tuned, tree, gpr = train_all_policies () in
  print_newline ();
  let systems = policy_systems tuned tree gpr.Gp.Evolve.best in
  let reports =
    List.map
      (fun (tag, suite) ->
        let r =
          P.Evaluate.compare_many ~scenario:Machine.Opt ~platform:Platform.x86 systems suite
        in
        Table.print (P.Evaluate.many_table r);
        print_newline ();
        (tag, r))
      [ ("spec", W.Suites.spec); ("dacapo", W.Suites.dacapo) ]
  in
  let suite_json (tag, r) =
    ( tag,
      Json.Obj
        (geomeans_json [ ("ga", "ga"); ("learned", "cart"); ("gp", "gp") ]
           (P.Evaluate.many_geos r)) )
  in
  write_record "BENCH_policy.json"
    [
      ("scenario", Json.Str "opt");
      ("platform", Json.Str "x86");
      ("suites", Json.Obj (List.map suite_json reports));
    ]

(* ---- GP bench ------------------------------------------------------------ *)

(* The tentpole's headline experiment: evolve the rule's structure on
   SPECjvm98, evaluate on the unseen DaCapo+JBB suite against the GA-tuned
   heuristic (the paper's Fig. 3 protocol) and the CART policy, and report
   how much simulation the dataset-agreement pre-filter avoided.  Numbers
   land in BENCH_gp.json for CI. *)
let gp_bench () =
  print_endline "==== GP policy evolution (structure search vs GA-tuned and CART) ====\n";
  let tuned, tree, gpr = train_all_policies () in
  let avoidance =
    if gpr.Gp.Evolve.prefilter_candidates = 0 then 0.0
    else
      Float.of_int gpr.Gp.Evolve.prefilter_skips
      /. Float.of_int gpr.Gp.Evolve.prefilter_candidates
  in
  Printf.printf "pre-filter: skipped %d of %d fresh trees (%.0f%% simulation avoidance)\n\n"
    gpr.Gp.Evolve.prefilter_skips gpr.Gp.Evolve.prefilter_candidates (100.0 *. avoidance);
  let report =
    P.Evaluate.compare_many ~scenario:Machine.Opt ~platform:Platform.x86
      (policy_systems tuned tree gpr.Gp.Evolve.best)
      W.Suites.dacapo
  in
  Table.print (P.Evaluate.many_table report);
  print_newline ();
  write_record "BENCH_gp.json"
    ([
       ("scenario", Json.Str "opt");
       ("platform", Json.Str "x86");
       ("suite", Json.Str "dacapo");
       ("best_tree", Json.Str (Gp.Tree.to_text gpr.Gp.Evolve.best));
       ("tree_size", int (Gp.Tree.size gpr.Gp.Evolve.best));
       ("evaluations", int gpr.Gp.Evolve.evaluations);
       ("cache_hits", int gpr.Gp.Evolve.cache_hits);
       ( "prefilter",
         Json.Obj
           [
             ("candidates", int gpr.Gp.Evolve.prefilter_candidates);
             ("skips", int gpr.Gp.Evolve.prefilter_skips);
             ("avoidance", fixed 4 avoidance);
           ] );
     ]
    @ geomeans_json [ ("ga", "ga"); ("cart", "cart"); ("gp", "gp") ] (P.Evaluate.many_geos report))

(* ---- Tuner caching bench ------------------------------------------------- *)

(* The decision-signature caching protocol (EXPERIMENTS.md): one fixed-seed
   GA run twice — cache off, then cache on starting empty.  Caching must be
   bit-transparent, so the two searches are required to produce the same
   best genome and the same per-generation history; the win is the count of
   full VM simulations avoided, plus the optimizing compiles the cache-on
   run's simulations reused (the compile cache follows the fitness cache's
   switch, so the cache-off run compiles everything fresh), and the Opt
   iterations each run derived instead of executing.  Numbers land in
   BENCH_tuner.json so CI can diff runs without scraping tables. *)
let tuner_bench () =
  print_endline "==== Tuner bench: decision-signature fitness caching ====\n";
  let suite = [ W.Suites.find "compress"; W.Suites.find "raytrace"; W.Suites.find "db" ] in
  let budget = budget () in
  let value name = Inltune_obs.Metric.value (Inltune_obs.Metric.counter name) in
  (* Default-heuristic baselines are memoized process-wide by
     [Measure.run_default]; pay for them once before either run so neither
     side's counts include them. *)
  Fitcache.set_enabled false;
  Fitcache.clear ();
  List.iter
    (fun bm -> ignore (Measure.run_default ~scenario:Machine.Opt ~platform:Platform.x86 bm))
    suite;
  let counted_run () =
    let s0 = value "measure.simulations" and d0 = value "vm.iterations_derived" in
    let o = Tuner.tune ~budget ~suite Tuner.Opt_tot_x86 in
    (o, value "measure.simulations" - s0, value "vm.iterations_derived" - d0)
  in
  let off, sims_off, derived_off = counted_run () in
  Fitcache.clear ();
  Fitcache.set_enabled true;
  let h0 = value "fitness.sig_hits"
  and m0 = value "fitness.sig_misses"
  and u0 = value "fitness.unique_plans"
  and ch0 = value "vm.code_cache.hits"
  and cm0 = value "vm.code_cache.misses" in
  let on, sims_on, derived_on = counted_run () in
  let sig_hits = value "fitness.sig_hits" - h0
  and sig_misses = value "fitness.sig_misses" - m0
  and unique_plans = value "fitness.unique_plans" - u0
  and code_cache_hits = value "vm.code_cache.hits" - ch0
  and code_cache_misses = value "vm.code_cache.misses" - cm0 in
  let identical_best = off.Tuner.ga.Inltune_ga.Evolve.best = on.Tuner.ga.Inltune_ga.Evolve.best in
  let identical_history =
    off.Tuner.ga.Inltune_ga.Evolve.history = on.Tuner.ga.Inltune_ga.Evolve.history
  in
  let avoided = sims_off - sims_on in
  let frac = Float.of_int avoided /. Float.of_int (max 1 sims_off) in
  let t =
    Table.create ~title:"Fixed-seed GA, cache off vs on (Opt:Tot, 3 benchmarks)"
      ~header:[| "run"; "simulations"; "sig hits"; "sig misses"; "unique plans" |]
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right |]
  in
  Table.add_row t [| "cache off"; string_of_int sims_off; "-"; "-"; "-" |];
  Table.add_row t
    [|
      "cache on"; string_of_int sims_on; string_of_int sig_hits; string_of_int sig_misses;
      string_of_int unique_plans;
    |];
  Table.add_rule t;
  Table.add_row t [| "avoided"; Printf.sprintf "%d (%.0f%%)" avoided (100.0 *. frac); ""; ""; "" |];
  Table.print t;
  Printf.printf "compile cache (cache on): %d hits, %d misses\n" code_cache_hits
    code_cache_misses;
  Printf.printf "derived iterations: %d (cache off), %d (cache on)\n" derived_off derived_on;
  Printf.printf "best genome identical: %b   per-generation history identical: %b\n"
    identical_best identical_history;
  write_record "BENCH_tuner.json"
    [
      ("suite", names suite);
      ("scenario", Json.Str "opt:tot");
      ("pop", int budget.Tuner.pop);
      ("gens", int budget.Tuner.gens);
      ("seed", int budget.Tuner.seed);
      ( "cache_off",
        Json.Obj [ ("simulations", int sims_off); ("iterations_derived", int derived_off) ] );
      ( "cache_on",
        Json.Obj
          [
            ("simulations", int sims_on);
            ("iterations_derived", int derived_on);
            ("sig_hits", int sig_hits);
            ("sig_misses", int sig_misses);
            ("unique_plans", int unique_plans);
            ("code_cache_hits", int code_cache_hits);
            ("code_cache_misses", int code_cache_misses);
          ] );
      ("simulations_avoided", int avoided);
      ("avoided_fraction", fixed 4 frac);
      ("identical_best", Json.Bool identical_best);
      ("identical_history", Json.Bool identical_history);
    ];
  if not (identical_best && identical_history) then begin
    prerr_endline "tuner bench: caching changed the search result (must be bit-transparent)";
    exit 1
  end

(* ---- Pass-manager bench --------------------------------------------------- *)

(* The plan-interpreter protocol (EXPERIMENTS.md): the refactored pipeline
   must be a pure reorganization — an explicitly parsed default plan has to
   measure bit-identically to the implicit built-in schedule in every
   scenario, and a fixed-seed heuristic GA run under the explicit plan must
   reproduce the implicit run's best genome and per-generation history.
   Then the new capability: a fixed-seed plan-genome GA (heuristic + plan
   co-evolution) end to end.  Numbers land in BENCH_passes.json so CI can
   diff runs without scraping tables; any identity violation exits 1. *)
let passes_bench () =
  print_endline "==== Pass-manager bench: plan interpreter identity + plan-genome GA ====\n";
  let suite = [ W.Suites.find "compress"; W.Suites.find "raytrace"; W.Suites.find "db" ] in
  let budget = budget () in
  let parsed_default =
    match Plan.of_string (Plan.to_string Plan.default) with
    | Ok p -> p
    | Error msg -> failwith ("default plan does not round-trip: " ^ msg)
  in
  (* (a) Raw measurements: implicit built-in schedule vs the parsed default
     plan, across every scenario. *)
  let scenarios = [ ("opt", Machine.Opt); ("adapt", Machine.Adapt); ("ladder", Machine.Ladder) ] in
  let t =
    Table.create ~title:"Implicit schedule vs parsed default plan (default heuristic, x86)"
      ~header:[| "benchmark"; "scenario"; "total (implicit)"; "total (plan)"; "identical" |]
      ~aligns:[| Table.Left; Table.Left; Table.Right; Table.Right; Table.Left |]
  in
  let identical_measurements = ref true in
  List.iter
    (fun bm ->
      let p = W.Suites.program bm in
      List.iter
        (fun (sname, scen) ->
          let implicit =
            Runner.measure (Machine.config scen Heuristic.default) Platform.x86 p
          in
          let planned =
            Runner.measure
              (Machine.config ~plan:parsed_default scen Heuristic.default)
              Platform.x86 p
          in
          let same = implicit = planned in
          if not same then identical_measurements := false;
          Table.add_row t
            [|
              bm.W.Suites.bname; sname;
              string_of_int implicit.Runner.total_cycles;
              string_of_int planned.Runner.total_cycles;
              string_of_bool same;
            |])
        scenarios)
    suite;
  Table.print t;
  print_newline ();
  (* (b) Fixed-seed heuristic GA, implicit vs explicit default plan.  The
     fitness cache is off so both searches simulate from scratch. *)
  Fitcache.set_enabled false;
  Fitcache.clear ();
  let implicit_ga = Tuner.tune ~budget ~suite Tuner.Opt_tot_x86 in
  let planned_ga = Tuner.tune ~budget ~suite ~plan:parsed_default Tuner.Opt_tot_x86 in
  Fitcache.set_enabled true;
  let identical_best =
    implicit_ga.Tuner.ga.Inltune_ga.Evolve.best = planned_ga.Tuner.ga.Inltune_ga.Evolve.best
  in
  let identical_history =
    implicit_ga.Tuner.ga.Inltune_ga.Evolve.history
    = planned_ga.Tuner.ga.Inltune_ga.Evolve.history
  in
  Printf.printf "heuristic GA under explicit default plan: best identical %b, history identical %b\n"
    identical_best identical_history;
  (* (c) The new capability: co-evolve heuristic and plan. *)
  let po = Tuner.tune_plan ~budget ~suite Tuner.Opt_tot_x86 in
  Printf.printf "plan-genome GA: fitness %.4f (heuristic-only %.4f)   best plan %s\n"
    po.Tuner.p_fitness implicit_ga.Tuner.fitness
    (if Plan.is_default po.Tuner.p_plan then "= default"
     else "digest " ^ Plan.digest po.Tuner.p_plan);
  print_string (Plan.to_string po.Tuner.p_plan);
  print_newline ();
  write_record "BENCH_passes.json"
    [
      ("suite", names suite);
      ("scenario", Json.Str "opt:tot");
      ("pop", int budget.Tuner.pop);
      ("gens", int budget.Tuner.gens);
      ("seed", int budget.Tuner.seed);
      ("identical_measurements", Json.Bool !identical_measurements);
      ("identical_best", Json.Bool identical_best);
      ("identical_history", Json.Bool identical_history);
      ( "heuristic_ga",
        Json.Obj
          [
            ("best_fitness", fixed 6 implicit_ga.Tuner.fitness);
            ("evaluations", int implicit_ga.Tuner.ga.Inltune_ga.Evolve.evaluations);
          ] );
      ( "plan_ga",
        Json.Obj
          [
            ("best_fitness", fixed 6 po.Tuner.p_fitness);
            ("evaluations", int po.Tuner.p_ga.Inltune_ga.Evolve.evaluations);
            ("plan_is_default", Json.Bool (Plan.is_default po.Tuner.p_plan));
            ("plan_digest", Json.Str (Plan.digest po.Tuner.p_plan));
          ] );
    ];
  if not (!identical_measurements && identical_best && identical_history) then begin
    prerr_endline
      "passes bench: the plan interpreter changed measurements or the GA trajectory \
       (must be bit-identical under the default plan)";
    exit 1
  end

(* ---- Inlining-strategy bench ---------------------------------------------- *)

(* The default plan with one alternative inlining strategy switched on (at
   its default knobs) in place of the decider-driven inline pass. *)
let strategy_plan strategy =
  let items =
    Array.map
      (fun it ->
        if it.Plan.pass = strategy then { it with Plan.enabled = true }
        else if it.Plan.pass = "inline" then { it with Plan.enabled = false }
        else it)
      Plan.default.Plan.items
  in
  match Plan.validate { Plan.items } with
  | Ok p -> p
  | Error msg -> failwith ("strategy plan " ^ strategy ^ ": " ^ msg)

(* Default plan vs each strategy plan vs a GA-tuned composite (heuristic +
   plan genes co-evolved on a training slice of the generated corpus), all
   evaluated on an unseen suite the GA never saw.  Writes
   BENCH_inliners.json. *)
let inliners_bench () =
  print_endline "==== Inliners bench: strategy plans vs the Fig. 3 default ====\n";
  let budget = budget () in
  let corpus name =
    match W.Corpus.find_opt name with
    | Some bm -> bm
    | None -> failwith ("inliners bench: no corpus program " ^ name)
  in
  let train =
    List.map corpus
      [ "corpus_chain00"; "corpus_dispatch00"; "corpus_recur00"; "corpus_sweep00";
        "corpus_sweep01"; "corpus_phase00" ]
  in
  let unseen =
    List.map corpus
      [ "corpus_chain10"; "corpus_dispatch10"; "corpus_recur10"; "corpus_sweep10";
        "corpus_phase01" ]
    @ [ W.Suites.find "compress"; W.Suites.find "jess" ]
  in
  let total ?plan scen heuristic bm =
    let cfg =
      match plan with
      | None -> Machine.config scen heuristic
      | Some plan -> Machine.config ~plan scen heuristic
    in
    (Runner.measure cfg Platform.x86 (W.Suites.program bm)).Runner.total_cycles
  in
  (* (a) Identity: corpus programs measure bit-identically under the parsed
     default plan, where the strategies are scheduled but disabled. *)
  let parsed_default =
    match Plan.of_string (Plan.to_string Plan.default) with
    | Ok p -> p
    | Error msg -> failwith ("default plan does not round-trip: " ^ msg)
  in
  let identical =
    List.for_all
      (fun bm ->
        total Machine.Opt Heuristic.default bm
        = total ~plan:parsed_default Machine.Opt Heuristic.default bm)
      train
  in
  Printf.printf "default-plan identity on the corpus: %b\n\n" identical;
  (* (b) Tuned composite: co-evolve heuristic + plan genes (which now span
     the strategy toggles and knobs) on the training corpus. *)
  Fitcache.clear ();
  let po = Tuner.tune_plan ~budget ~suite:train Tuner.Opt_tot_x86 in
  Printf.printf "tuned composite: fitness %.4f   plan %s\n%s\n" po.Tuner.p_fitness
    (if Plan.is_default po.Tuner.p_plan then "= default"
     else "digest " ^ Plan.digest po.Tuner.p_plan)
    (Plan.to_string po.Tuner.p_plan);
  (* (c) Unseen-suite comparison under Opt.  inline_hot is omitted here: it
     needs a live profile, so it competes under Adapt below. *)
  let opt_columns =
    [ ("inline_leaves", strategy_plan "inline_leaves", Heuristic.default);
      ("inline_region", strategy_plan "inline_region", Heuristic.default);
      ("tuned", po.Tuner.p_plan, po.Tuner.p_heuristic) ]
  in
  let t =
    Table.create ~title:"Unseen suite, Opt: total cycles vs the default plan"
      ~header:
        (Array.of_list
           ("benchmark" :: "default"
           :: List.concat_map (fun (n, _, _) -> [ n; n ^ " /def" ]) opt_columns))
      ~aligns:(Array.make (2 + (2 * List.length opt_columns)) Table.Right)
  in
  let opt_rows =
    List.map
      (fun bm ->
        let def = total Machine.Opt Heuristic.default bm in
        let cells =
          List.map
            (fun (_, plan, heuristic) ->
              let c = total ~plan Machine.Opt heuristic bm in
              (c, Float.of_int c /. Float.of_int def))
            opt_columns
        in
        Table.add_row t
          (Array.of_list
             (bm.W.Suites.bname :: string_of_int def
             :: List.concat_map
                  (fun (c, r) -> [ string_of_int c; Table.fmt_float r ])
                  cells));
        (bm, def, cells))
      unseen
  in
  let geomean_of idx =
    Stats.geomean
      (Array.of_list (List.map (fun (_, _, cells) -> snd (List.nth cells idx)) opt_rows))
  in
  let opt_geomeans = List.mapi (fun i (n, _, _) -> (n, geomean_of i)) opt_columns in
  Table.add_row t
    (Array.of_list
       ("geomean" :: ""
       :: List.concat_map (fun (_, g) -> [ ""; Table.fmt_float g ]) opt_geomeans));
  Table.print t;
  print_newline ();
  (* (d) Adapt: the hot-path strategy against the default, on the unseen
     corpus programs (the profile-consuming pass only exists here). *)
  let t2 =
    Table.create ~title:"Unseen suite, Adapt: hot-path strategy vs the default plan"
      ~header:[| "benchmark"; "default"; "inline_hot"; "hot /def" |]
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right |]
  in
  let hot_plan = strategy_plan "inline_hot" in
  let adapt_rows =
    List.map
      (fun bm ->
        let def = total Machine.Adapt Heuristic.default bm in
        let hot = total ~plan:hot_plan Machine.Adapt Heuristic.default bm in
        let r = Float.of_int hot /. Float.of_int def in
        Table.add_row t2
          [| bm.W.Suites.bname; string_of_int def; string_of_int hot; Table.fmt_float r |];
        (bm, def, hot, r))
      unseen
  in
  let hot_geomean =
    Stats.geomean (Array.of_list (List.map (fun (_, _, _, r) -> r) adapt_rows))
  in
  Table.add_row t2 [| "geomean"; ""; ""; Table.fmt_float hot_geomean |];
  Table.print t2;
  print_newline ();
  (* A corpus program "wins" when some strategy or the tuned composite beats
     the default plan's total time on it. *)
  let corpus_wins =
    List.filter
      (fun (bm, def, cells) ->
        String.length bm.W.Suites.bname >= 7
        && String.sub bm.W.Suites.bname 0 7 = "corpus_"
        && List.exists (fun (c, _) -> c < def) cells)
      opt_rows
    |> List.map (fun (bm, _, _) -> bm.W.Suites.bname)
  in
  Printf.printf "corpus programs where a strategy/tuned plan beats the default: %s\n"
    (match corpus_wins with [] -> "none" | l -> String.concat ", " l);
  write_record "BENCH_inliners.json"
    [
      ("train", names train);
      ("unseen", names unseen);
      ("pop", int budget.Tuner.pop);
      ("gens", int budget.Tuner.gens);
      ("seed", int budget.Tuner.seed);
      ("identical_default", Json.Bool identical);
      ( "tuned",
        Json.Obj
          [
            ("fitness", fixed 6 po.Tuner.p_fitness);
            ("plan_is_default", Json.Bool (Plan.is_default po.Tuner.p_plan));
            ("plan_digest", Json.Str (Plan.digest po.Tuner.p_plan));
          ] );
      ( "opt",
        Json.Obj
          [
            ( "benchmarks",
              Json.List
                (List.map
                   (fun (bm, def, cells) ->
                     Json.Obj
                       (("name", Json.Str bm.W.Suites.bname)
                       :: ("default", int def)
                       :: List.map2 (fun (n, _, _) (c, _) -> (n, int c)) opt_columns cells))
                   opt_rows) );
            ( "geomean_vs_default",
              Json.Obj (List.map (fun (n, g) -> (n, fixed 6 g)) opt_geomeans) );
          ] );
      ( "adapt",
        Json.Obj
          [
            ( "benchmarks",
              Json.List
                (List.map
                   (fun (bm, def, hot, _) ->
                     Json.Obj
                       [
                         ("name", Json.Str bm.W.Suites.bname);
                         ("default", int def);
                         ("inline_hot", int hot);
                       ])
                   adapt_rows) );
            ("geomean_vs_default", Json.Obj [ ("inline_hot", fixed 6 hot_geomean) ]);
          ] );
      ("corpus_wins", Json.List (List.map (fun n -> Json.Str n) corpus_wins));
      ("any_corpus_win", Json.Bool (corpus_wins <> []));
    ];
  if not identical then begin
    prerr_endline
      "inliners bench: the default plan (strategies scheduled but disabled) changed \
       corpus measurements (must be bit-identical)";
    exit 1
  end

(* ---- Serve bench: concurrent clients vs a saturated daemon -------------- *)

(* The robustness protocol for the tuning daemon: N concurrent clients hammer
   an in-process server whose pool admission is deliberately tiny, with one
   injected fault armed mid-load.  Every request must get an explicit reply
   (ok / degraded / overloaded / quota / failed — never a hang), overload
   must produce real backpressure, tenants must hit each other's cache
   entries, and a fixed-seed tune through the daemon must return the exact
   genome the offline [Tuner.tune] path computes.  Numbers land in
   BENCH_serve.json; any violated invariant exits 1. *)
let serve_bench () =
  let module Server = Inltune_serve.Server in
  let module Sproto = Inltune_serve.Proto in
  let module Sclient = Inltune_serve.Client in
  let module Metric = Inltune_obs.Metric in
  let module Faultinject = Inltune_resilience.Faultinject in
  print_endline "==== Serve: concurrent clients vs a saturated daemon ====\n";
  let clients = env_int "INLTUNE_SERVE_CLIENTS" 8 in
  let measures_per_client = env_int "INLTUNE_SERVE_MEASURES" 10 in
  (* Offline reference first, before the daemon exists (and before its
     tenant hook is installed), with a fixed small budget. *)
  let suite = [ W.Suites.find "compress" ] in
  let ibudget = { Tuner.pop = 6; gens = 2; seed = 123 } in
  let offline = Tuner.tune ~budget:ibudget ~suite Tuner.Opt_tot_x86 in
  let sock = Filename.temp_file "inltune_serve" ".sock" in
  Sys.remove sock;
  let endpoint = Sproto.Unix_path sock in
  let config =
    {
      Server.default_config with
      Server.permits = 2;
      queue_cap = 2;
      quota_rate = 50.0;
      quota_burst = 10.0;
      max_retries = 1;
      degrade_after = 4;
      degrade_window_s = 10.0;
      cooldown_s = 1.0;
      quiet = true;
    }
  in
  let cross0 = Metric.value (Metric.counter "fitness.cross_tenant_hits") in
  let srv = Server.start ~config endpoint in
  (* One faulted request mid-load (both its attempts), so the failure path
     runs under concurrency. *)
  Faultinject.install
    [
      { Faultinject.site = "serve"; action = Faultinject.Raise; at = 5 };
      { Faultinject.site = "serve"; action = Faultinject.Raise; at = 6 };
    ];
  let benches = [| "compress"; "db"; "jess"; "raytrace" |] in
  let results = Array.make clients [] in
  let missing = Atomic.make 0 in
  let t_start = Unix.gettimeofday () in
  let client_thread i =
    let outcomes = ref [] in
    let record line ms =
      let status =
        match Json.parse line with
        | Ok j -> (
          match Json.member "status" j with Some (Json.Str s) -> s | _ -> "?")
        | Error _ -> "?"
      in
      outcomes := (status, ms) :: !outcomes
    in
    let rpc line =
      let t0 = Unix.gettimeofday () in
      match Sclient.rpc ~timeout_s:180.0 endpoint line with
      | Ok reply -> record reply ((Unix.gettimeofday () -. t0) *. 1e3)
      | Error _ -> Atomic.incr missing
    in
    let tenant = Printf.sprintf "t%d" (i mod 4) in
    (* Phase 1: every client starts a small tune at once — 8 concurrent
       tunes against permits=2/queue=2 forces sheds. *)
    rpc
      (Printf.sprintf
         "{\"op\":\"tune\",\"tenant\":%S,\"scenario\":\"opt:bal\",\"pop\":4,\"gens\":1,\
          \"seed\":%d,\"suite\":[\"compress\"]}"
         tenant (100 + i));
    (* Phase 2: measure queries shared across tenants, so later clients hit
       cache entries earlier tenants paid for. *)
    for k = 0 to measures_per_client - 1 do
      rpc
        (Printf.sprintf
           "{\"op\":\"measure\",\"tenant\":%S,\"bench\":%S,\"deadline_ms\":60000}" tenant
           benches.((i + k) mod Array.length benches))
    done;
    results.(i) <- !outcomes
  in
  let threads = Array.init clients (fun i -> Thread.create client_thread i) in
  Array.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t_start in
  Faultinject.clear ();
  (* Let the daemon cool down out of degraded mode before the identity
     check; it must heal on its own. *)
  let rec wait_normal tries =
    if Server.degraded_mode srv && tries > 0 then begin
      Thread.delay 0.1;
      wait_normal (tries - 1)
    end
  in
  wait_normal 300;
  let healed = not (Server.degraded_mode srv) in
  (* Identity: same budget and suite as the offline reference, through the
     daemon, must reproduce the genome and fitness bit-for-bit. *)
  let identity_reply =
    Sclient.rpc ~timeout_s:300.0 endpoint
      (Printf.sprintf
         "{\"op\":\"tune\",\"tenant\":\"identity\",\"scenario\":\"opt:tot\",\"pop\":%d,\
          \"gens\":%d,\"seed\":%d,\"suite\":[\"compress\"]}"
         ibudget.Tuner.pop ibudget.Tuner.gens ibudget.Tuner.seed)
  in
  let identical_tune, served_fitness =
    match identity_reply with
    | Error _ -> (false, Float.nan)
    | Ok reply -> (
      match Json.parse reply with
      | Error _ -> (false, Float.nan)
      | Ok j ->
        let genome =
          match Json.member "genome" j with
          | Some (Json.List gs) ->
            Some
              (Array.of_list
                 (List.filter_map
                    (fun g -> Option.map int_of_float (Json.to_float g))
                    gs))
          | _ -> None
        in
        let fitness =
          Option.bind (Json.member "fitness" j) Json.to_float
          |> Option.value ~default:Float.nan
        in
        let status =
          match Json.member "status" j with Some (Json.Str s) -> s | _ -> "?"
        in
        ( status = "ok"
          && genome = Some (Heuristic.to_array offline.Tuner.heuristic)
          && fitness = offline.Tuner.fitness,
          fitness ))
  in
  let crashed =
    match Sclient.rpc ~timeout_s:10.0 endpoint "{\"op\":\"ping\"}" with
    | Ok _ -> false
    | Error _ -> true
  in
  Server.stop srv;
  (* Tally. *)
  let statuses = Hashtbl.create 8 in
  let lats = ref [] in
  Array.iter
    (fun rs ->
      List.iter
        (fun (s, ms) ->
          Hashtbl.replace statuses s (1 + Option.value ~default:0 (Hashtbl.find_opt statuses s));
          lats := ms :: !lats)
        rs)
    results;
  let count s = Option.value ~default:0 (Hashtbl.find_opt statuses s) in
  let lat = Array.of_list !lats in
  let replies = Array.length lat in
  let expected = clients * (1 + measures_per_client) in
  let pct p = if replies = 0 then 0.0 else Stats.percentile lat p in
  let cross = Metric.value (Metric.counter "fitness.cross_tenant_hits") - cross0 in
  let backpressure = count "overloaded" + count "quota" + count "degraded" in
  let t =
    Table.create ~title:"Serve load bench"
      ~header:[| "metric"; "value" |]
      ~aligns:[| Table.Left; Table.Right |]
  in
  Table.add_row t [| "clients"; string_of_int clients |];
  Table.add_row t [| "requests sent"; string_of_int expected |];
  Table.add_row t [| "replies received"; string_of_int replies |];
  Table.add_row t [| "no reply (hang/conn)"; string_of_int (Atomic.get missing) |];
  Hashtbl.fold (fun s n acc -> (s, n) :: acc) statuses []
  |> List.sort compare
  |> List.iter (fun (s, n) -> Table.add_row t [| "status " ^ s; string_of_int n |]);
  Table.add_row t [| "cross-tenant cache hits"; string_of_int cross |];
  Table.add_row t [| "wall"; Printf.sprintf "%.2fs" wall_s |];
  Table.add_row t [| "throughput"; Printf.sprintf "%.1f req/s" (Float.of_int replies /. Float.max 1e-9 wall_s) |];
  Table.add_row t [| "latency p50/p90/p99"; Printf.sprintf "%.0f/%.0f/%.0f ms" (pct 50.0) (pct 90.0) (pct 99.0) |];
  Table.add_row t [| "healed from degraded"; string_of_bool healed |];
  Table.add_row t [| "identical tune"; string_of_bool identical_tune |];
  Table.add_row t [| "server crashes"; string_of_int (if crashed then 1 else 0) |];
  Table.print t;
  print_newline ();
  let statuses_json =
    Hashtbl.fold (fun s n acc -> (s, n) :: acc) statuses []
    |> List.sort compare
    |> List.map (fun (s, n) -> (s, int n))
  in
  write_record "BENCH_serve.json"
    [
      ("clients", int clients);
      ("requests", int expected);
      ("replies", int replies);
      ("no_reply", int (Atomic.get missing));
      ("wall_s", fixed 3 wall_s);
      ("throughput_rps", fixed 2 (Float.of_int replies /. Float.max 1e-9 wall_s));
      ( "latency_ms",
        Json.Obj
          [
            ("p50", fixed 2 (pct 50.0));
            ("p90", fixed 2 (pct 90.0));
            ("p99", fixed 2 (pct 99.0));
            ("max", fixed 2 (if replies = 0 then 0.0 else Stats.max_of lat));
          ] );
      ("statuses", Json.Obj statuses_json);
      ("backpressure_replies", int backpressure);
      ("cross_tenant_hits", int cross);
      ("healed", Json.Bool healed);
      ("identical_tune", Json.Bool identical_tune);
      ("served_fitness", Json.Num served_fitness);
      ("offline_fitness", Json.Num offline.Tuner.fitness);
      ("server_crashes", int (if crashed then 1 else 0));
    ];
  let failures = ref [] in
  let check cond what = if not cond then failures := what :: !failures in
  check (replies = expected) "some requests got no reply";
  check (Atomic.get missing = 0) "connection-level failures";
  check (backpressure > 0) "saturation produced no explicit backpressure";
  check (cross > 0) "no cross-tenant cache hits";
  check healed "daemon did not recover from degraded mode";
  check identical_tune "served tune differs from offline tune";
  check (not crashed) "daemon died under load";
  if !failures <> [] then begin
    List.iter (Printf.eprintf "serve bench FAILED: %s\n%!") !failures;
    exit 1
  end

(* ---- main ----------------------------------------------------------------- *)

let () =
  Inltune_obs.Trace.init_from_env ();
  (* INLTUNE_PROFILE=1 works for benches exactly as it does for the CLI. *)
  Inltune_obs.Prof.init_from_env ();
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "everything" in
  let protocols =
    [ "everything"; "ablations"; "extensions"; "policy"; "gp"; "tuner"; "passes"; "inliners";
      "serve" ]
    @ Experiments.known
  in
  if not (List.mem arg protocols) then begin
    Printf.eprintf "bench: unknown protocol %s (one of %s)\n" arg (String.concat ", " protocols);
    exit 2
  end;
  let ctx = Experiments.make_ctx ~budget:(budget ()) () in
  match arg with
  | "everything" ->
    print_endline "==== Paper experiments (all tables and figures) ====\n";
    Experiments.run_all ctx;
    ablations ();
    extensions ();
    policy_comparison ();
    tuner_bench ();
    passes_bench ();
    inliners_bench ();
    serve_bench ()
  | "ablations" -> ablations ()
  | "extensions" -> extensions ()
  | "policy" -> policy_comparison ()
  | "gp" -> gp_bench ()
  | "tuner" -> tuner_bench ()
  | "passes" -> passes_bench ()
  | "inliners" -> inliners_bench ()
  | "serve" -> serve_bench ()
  | id -> Experiments.run_one ctx id
