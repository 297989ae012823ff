(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and runs the ablation, extension, learned-policy and
   inlining-strategy protocols called out in DESIGN.md and EXPERIMENTS.md.
   It reproduces results; it neither times the simulator (the repo
   benchmark, perfbench/, does) nor asserts identities ([dune runtest]
   does).

       dune exec bench/main.exe                 # everything
       dune exec bench/main.exe fig5            # one experiment
       dune exec bench/main.exe ablations       # just the ablations
       dune exec bench/main.exe policy          # GA vs CART vs GP -> BENCH_policy.json
       dune exec bench/main.exe inliners        # strategy plans vs default -> BENCH_inliners.json

   Environment knobs (for bigger GA budgets):
       INLTUNE_POP (default 16), INLTUNE_GENS (default 12),
       INLTUNE_SEED (default 42). *)

open Inltune_core
open Inltune_vm
open Inltune_opt
module W = Inltune_workloads
module Table = Inltune_support.Table
module Stats = Inltune_support.Stats

(* Usage, knob and path errors are one line on stderr and exit 2. *)
let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with Some n -> n | None -> die "bad %s %S: not an integer" name v)

(* Bench records are one JSON object per file, written through [Json.encode]
   so names and tree texts are escaped.  [fixed d v] is [v] at the [d]
   decimals the record reports. *)
module Json = Inltune_obs.Json

let fixed d v = Json.Num (Float.of_string (Printf.sprintf "%.*f" d v))
let int n = Json.Num (Float.of_int n)
let names bms = Json.List (List.map (fun bm -> Json.Str bm.W.Suites.bname) bms)

let write_record path fields =
  match Inltune_support.Textfile.write path (Json.encode (Json.Obj fields) ^ "\n") with
  | Ok () -> Printf.printf "wrote %s\n\n" path
  | Error m -> die "cannot write record: %s" m

let budget () =
  let b =
    {
      Tuner.pop = env_int "INLTUNE_POP" 16;
      gens = env_int "INLTUNE_GENS" 12;
      seed = env_int "INLTUNE_SEED" 42;
    }
  in
  match Tuner.check_budget b with Ok () -> b | Error m -> die "bad INLTUNE_POP %d: %s" b.pop m

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

(* The GA-vs-learned protocol: GA-tune on SPECjvm98, label a flip-oracle
   dataset there, train CART on it, and evolve a GP policy with the dataset
   as the agreement pre-filter.  Then measure default vs GA-tuned vs CART vs
   GP on SPECjvm98 and on the unseen DaCapo+JBB suite (the paper's Fig. 3
   protocol).  Besides the printed tables, the per-suite geomean time
   ratios, the GP tree and how much simulation the pre-filter avoided land in
   BENCH_policy.json so tooling can diff runs without scraping tables. *)
let policy_comparison () =
  print_endline "==== Learned-policy comparison (default vs GA-tuned vs CART vs GP) ====\n";
  let b = budget () in
  let o = Tuner.tune ~budget:b Tuner.Opt_tot_x86 in
  let cfg = { P.Dataset.default_config with P.Dataset.max_sites = 12 } in
  let examples = Result.get_ok (P.Dataset.generate cfg W.Suites.spec) in
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
  let gp_tree = gpr.Gp.Evolve.best in
  let avoidance =
    if gpr.Gp.Evolve.prefilter_candidates = 0 then 0.0
    else
      Float.of_int gpr.Gp.Evolve.prefilter_skips
      /. Float.of_int gpr.Gp.Evolve.prefilter_candidates
  in
  Printf.printf "tuned heuristic: %s\n" (Heuristic.to_string o.Tuner.heuristic);
  Printf.printf "dataset: %d examples; CART tree: %d nodes, depth %d\n"
    (List.length examples) (P.Dtree.size tree) (P.Dtree.depth tree);
  Printf.printf "GP best (%d evals, %d cache hits, size %d): %s\n" gpr.Gp.Evolve.evaluations
    gpr.Gp.Evolve.cache_hits (Gp.Tree.size gp_tree) (Gp.Tree.to_text gp_tree);
  Printf.printf "pre-filter: skipped %d of %d fresh trees (%.0f%% simulation avoidance)\n\n"
    gpr.Gp.Evolve.prefilter_skips gpr.Gp.Evolve.prefilter_candidates (100.0 *. avoidance);
  let scenario = Machine.Opt and platform = Platform.x86 in
  let systems =
    [
      ("ga", fun bm -> Measure.run ~scenario ~platform ~heuristic:o.Tuner.heuristic bm);
      ("cart", fun bm -> P.Evaluate.measure ~scenario ~platform (P.Store.Tree tree) bm);
      ( "gp",
        fun bm -> Measure.run_decider ~scenario ~platform ~decider:(Gp.Decode.decider gp_tree) bm );
    ]
  in
  (* A suite's running and total geomeans: "default" is 1.0 by construction,
     then one entry per system. *)
  let suite_json (tag, suite) =
    let r = P.Evaluate.compare_many ~scenario ~platform systems suite in
    Table.print (P.Evaluate.many_table r);
    print_newline ();
    let geos = P.Evaluate.many_geos r in
    let geo pick =
      Json.Obj
        (("default", Json.Num 1.0)
        :: List.map
             (fun (key, label) -> (key, fixed 6 (pick (List.assoc label geos))))
             [ ("ga", "ga"); ("learned", "cart"); ("gp", "gp") ])
    in
    ( tag,
      Json.Obj
        [
          ("running", geo (fun g -> g.P.Evaluate.g_running));
          ("total", geo (fun g -> g.P.Evaluate.g_total));
        ] )
  in
  let suites = List.map suite_json [ ("spec", W.Suites.spec); ("dacapo", W.Suites.dacapo) ] in
  write_record "BENCH_policy.json"
    [
      ("scenario", Json.Str "opt");
      ("platform", Json.Str "x86");
      ("suites", Json.Obj suites);
      ("best_tree", Json.Str (Gp.Tree.to_text gp_tree));
      ("tree_size", int (Gp.Tree.size gp_tree));
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

(* ---- main ----------------------------------------------------------------- *)

let () =
  Result.iter_error (die "cannot open INLTUNE_TRACE file: %s") (Inltune_obs.Trace.init_from_env ());
  (* INLTUNE_PROFILE=1 works for benches exactly as it does for the CLI. *)
  Inltune_obs.Prof.init_from_env ();
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "everything" in
  let protocols =
    [ "everything"; "ablations"; "extensions"; "policy"; "inliners" ] @ Experiments.known
  in
  if not (List.mem arg protocols) then
    die "unknown protocol %s (one of %s)" arg (String.concat ", " protocols);
  let ctx = Experiments.make_ctx ~budget:(budget ()) () in
  match arg with
  | "everything" ->
    print_endline "==== Paper experiments (all tables and figures) ====\n";
    Experiments.run_all ctx;
    ablations ();
    extensions ();
    policy_comparison ();
    inliners_bench ()
  | "ablations" -> ablations ()
  | "extensions" -> extensions ()
  | "policy" -> policy_comparison ()
  | "inliners" -> inliners_bench ()
  | id -> Experiments.run_one ctx id
