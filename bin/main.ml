(* inltune — command-line interface.

   Subcommands:
     list                      show the benchmark suites
     show <bench>              dump a benchmark's JIR and shape statistics
     run <bench>               simulate one benchmark and report times
     tune                      GA-tune the heuristic (and, with --tune-passes,
                               the optimization plan; with --evolve-policy,
                               the rule's structure itself) for a scenario
     plan [<file>]             print, validate, or canonicalize a plan
     experiment <id>           regenerate a paper table/figure (or "all")
     trace-summary <file>      aggregate a JSONL trace into report tables
     features <bench>          dump call-site feature vectors
     dataset <file>            build a flip-oracle labeled dataset (resumable)
     train-policy              induce a decision-tree (or threshold) policy
     eval-policy <file>        run a stored policy on a suite vs default/GA
     gp print|eval <file>      inspect / evaluate an evolved policy tree
     serve                     run the tuning daemon (line-JSON over a socket)
     client <op>               talk to a running daemon (ping/stats/measure/tune)

   INLTUNE_VM_REFERENCE=1 runs every simulation on the tree-walking
   reference interpreter instead of the flat compiled-dispatch one; the
   two are bit-identical on all reported numbers (see README
   "Performance"), so this is a cross-check knob, not a behaviour knob.
*)

open Cmdliner
open Inltune_core
open Inltune_vm
open Inltune_opt
module W = Inltune_workloads
module P = Inltune_policy
module Gp = Inltune_gp

(* Bad flag values get one line on stderr and exit code 2 (usage error),
   never a raw OCaml backtrace. *)
let die fmt = Printf.ksprintf (fun s -> Printf.eprintf "inltune: %s\n%!" s; exit 2) fmt

let platform_arg =
  let doc = "Platform model: x86 or ppc." in
  Arg.(value & opt string "x86" & info [ "platform"; "p" ] ~docv:"PLATFORM" ~doc)

let scenario_arg =
  let doc = "Compilation scenario: opt, adapt, or ladder (staged recompilation)." in
  Arg.(value & opt string "opt" & info [ "scenario"; "s" ] ~docv:"SCENARIO" ~doc)

let heuristic_arg =
  let doc =
    "Heuristic parameter overrides, e.g. 'CALLEE_MAX_SIZE=10,MAX_INLINE_DEPTH=2'.  Unset \
     parameters keep the Jikes RVM defaults."
  in
  Arg.(value & opt string "" & info [ "heuristic"; "H" ] ~docv:"PARAMS" ~doc)

let scenario_of_flag = function
  | "opt" -> Machine.Opt
  | "adapt" -> Machine.Adapt
  | "ladder" -> Machine.Ladder
  | s -> die "unknown scenario '%s' (valid: opt, adapt, ladder)" s

let tuner_scenario_of_flag s =
  try Tuner.scenario_of_string s
  with Invalid_argument _ ->
    die "unknown tuning scenario '%s' (valid: %s)" s (String.concat ", " Tuner.scenario_names)

let platform_of_flag s =
  try Platform.by_name s
  with Invalid_argument _ -> die "unknown platform '%s' (valid: x86, ppc)" s

let heuristic_of_flag s =
  try Params.heuristic_of_string s with
  | Invalid_argument msg -> die "bad --heuristic: %s" msg
  | Failure _ -> die "bad --heuristic '%s': parameter values must be integers" s

let plan_arg =
  let doc =
    "Run the optimizing tier under the plan in $(docv) instead of the built-in schedule \
     (see the $(b,plan) subcommand for the text format)."
  in
  Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)

let read_text_file path =
  try
    let ic = open_in path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with Sys_error msg -> die "cannot read plan file: %s" msg

let plan_of_flag = function
  | None -> None
  | Some path -> (
    match Plan.of_string (read_text_file path) with
    | Ok p -> Some p
    | Error msg -> die "bad plan %s: %s" path msg)

let find_bench name =
  try W.Suites.find name
  with Invalid_argument _ -> (
    match W.Corpus.find_opt name with
    | Some bm -> bm
    | None ->
      die "unknown benchmark '%s' (valid: %s; or a generated corpus program: %s)" name
        (String.concat ", "
           (List.map (fun bm -> bm.W.Suites.bname) (W.Suites.spec @ W.Suites.dacapo)))
        (String.concat ", "
           (List.map
              (fun f -> Printf.sprintf "corpus_%s00..%02d" f.W.Corpus.fname (f.W.Corpus.fcount - 1))
              W.Corpus.families)))

let trace_arg =
  let doc =
    "Append a JSONL trace (inlining decisions, pass timings, compiles, GA generations) to \
     $(docv); '-' streams human-readable events to stderr.  Overrides $(b,INLTUNE_TRACE)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let domains_arg =
  let doc =
    "Bound parallel fitness evaluation to $(docv) participating domains (>= 1): the \
     calling domain plus $(docv)-1 pool workers; 1 runs strictly sequentially on the \
     calling domain.  Default: the machine's recommended domain count, capped at 8."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

(* The one shared --domains parser: validate, then set the process-wide
   default so every Pool user — explicit [?domains] thread-through or not —
   is bounded uniformly. *)
let domains_of_flag = function
  | Some d when d < 1 -> die "bad --domains %d: must be >= 1" d
  | d ->
    Option.iter Inltune_support.Pool.set_default_domains d;
    d

let fitness_cache_arg =
  let doc =
    "Persist fitness measurements to $(docv) (append-only JSONL keyed by program, \
     scenario, platform and decision signature) and reload its entries at startup, so \
     repeated tuning runs skip simulations they have already paid for.  Corrupt or \
     truncated lines are skipped with a warning."
  in
  Arg.(value & opt (some string) None & info [ "fitness-cache" ] ~docv:"FILE" ~doc)

let setup_fitness_cache = function
  | None -> ()
  | Some path -> Fitcache.set_file (Some path)

let setup_trace = function
  | Some "-" -> Inltune_obs.Trace.to_channel stderr
  | Some path -> (
    try Inltune_obs.Trace.to_file path
    with Sys_error msg ->
      Printf.eprintf "inltune: cannot open trace file: %s\n" msg;
      exit 1)
  | None -> Inltune_obs.Trace.init_from_env ()

let profile_arg =
  let doc =
    "Enable the hierarchical wall-time profiler and print its table (self vs. cumulative \
     time per span, exact p50/p90/p99) to stderr at exit.  Never perturbs measurements: \
     simulated cycle counts and GA history are bit-identical with or without it.  \
     Overrides $(b,INLTUNE_PROFILE)."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let setup_profile = function
  | true ->
    Inltune_obs.Prof.enable ();
    Inltune_obs.Prof.report_at_exit ()
  | false -> Inltune_obs.Prof.init_from_env ()

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    let dump title suite =
      Printf.printf "%s:\n" title;
      List.iter
        (fun bm ->
          let p = W.Suites.program bm in
          Printf.printf "  %-10s %4d methods %5d instrs  %s\n" bm.W.Suites.bname
            (Array.length p.Inltune_jir.Ir.methods)
            (Inltune_jir.Ir.program_instr_count p)
            bm.W.Suites.bdescription)
        suite
    in
    dump "SPECjvm98 (training suite)" W.Suites.spec;
    dump "DaCapo+JBB (test suite)" W.Suites.dacapo
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suites")
    Term.(const run $ const ())

(* --- show ---------------------------------------------------------------- *)

let bench_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc:"Benchmark name")

let show_cmd =
  let run bench full =
    let bm = find_bench bench in
    let p = W.Suites.program bm in
    let cg = Inltune_jir.Callgraph.build p in
    Printf.printf "%s: %s\n" bm.W.Suites.bname bm.W.Suites.bdescription;
    Printf.printf "  methods: %d   classes: %d   call sites: %d   size estimate: %d\n"
      (Array.length p.Inltune_jir.Ir.methods)
      (Array.length p.Inltune_jir.Ir.classes)
      (Inltune_jir.Callgraph.call_site_count p)
      (Inltune_jir.Size.of_program p);
    Printf.printf "  reachable from main: %d methods\n"
      (List.length (Inltune_jir.Callgraph.reachable cg p.Inltune_jir.Ir.main));
    if full then print_string (Inltune_jir.Pp.program_to_string p)
  in
  let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Dump the full JIR") in
  Cmd.v (Cmd.info "show" ~doc:"Describe a benchmark program")
    Term.(const run $ bench_arg $ full_arg)

(* --- run ----------------------------------------------------------------- *)

let run_cmd =
  let run bench scenario platform hstring iterations planfile trace profile =
    setup_trace trace;
    setup_profile profile;
    let bm = find_bench bench in
    let plat = platform_of_flag platform in
    let scen = scenario_of_flag scenario in
    let heuristic = heuristic_of_flag hstring in
    let plan = plan_of_flag planfile in
    let t = Measure.run ?plan ~iterations ~scenario:scen ~platform:plat ~heuristic bm in
    let d = Measure.run_default ~iterations ~scenario:scen ~platform:plat bm in
    let raw = t.Measure.raw in
    Printf.printf "%s under %s on %s with %s\n" bench scenario platform
      (Heuristic.to_string heuristic);
    Printf.printf "  total:    %10d cycles (%.6f s)  [vs default: %.3f]\n"
      raw.Runner.total_cycles
      (Platform.seconds plat raw.Runner.total_cycles)
      (t.Measure.total /. d.Measure.total);
    Printf.printf "  running:  %10d cycles (%.6f s)  [vs default: %.3f]\n"
      raw.Runner.running_cycles
      (Platform.seconds plat raw.Runner.running_cycles)
      (t.Measure.running /. d.Measure.running);
    Printf.printf "  compile:  %10d cycles   opt-compiled: %d   baseline-compiled: %d\n"
      raw.Runner.first_compile_cycles raw.Runner.opt_compiles raw.Runner.baseline_compiles;
    Printf.printf "  code: %d bytes   icache miss rate: %.4f   checksum: %d\n"
      raw.Runner.code_bytes
      (Float.of_int raw.Runner.icache_misses /. Float.of_int (max 1 raw.Runner.icache_accesses))
      raw.Runner.ret
  in
  let iters = Arg.(value & opt int 3 & info [ "iterations" ] ~doc:"VM iterations (>= 2)") in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one benchmark and report times")
    Term.(
      const run $ bench_arg $ scenario_arg $ platform_arg $ heuristic_arg $ iters $ plan_arg
      $ trace_arg $ profile_arg)

(* --- tune ---------------------------------------------------------------- *)

let checkpoint_arg =
  let doc =
    "Append a GA snapshot to $(docv) after every generation (JSONL); a later run can pick \
     up from it with $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Resume the GA from the last valid snapshot in $(docv) (written by $(b,--checkpoint)).  \
     The continued run is deterministic: it produces exactly the result an uninterrupted \
     run would have."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

(* A refused resume or an unwritable checkpoint is reported like a bad flag:
   one line, exit 2. *)
let checkpointed f = try f () with Inltune_ga.Evolve.Checkpoint_error msg -> die "%s" msg

let max_retries_arg =
  let doc =
    "How many times to retry a transiently failing fitness evaluation before the genome is \
     penalized and quarantined."
  in
  Arg.(value & opt int 1 & info [ "max-retries" ] ~docv:"N" ~doc)

(* The --progress reporter: one stderr line per generation with the search
   telemetry (diversity, cache hit rate, pool utilization) and an ETA
   extrapolated from the per-generation wall times so far.  gens + 1 total
   because generation 0 is evaluated too. *)
let progress_reporter ~gens =
  let t0 = Inltune_support.Pool.now () in
  fun (s : Inltune_ga.Evolve.gen_stats) ->
    let total = gens + 1 in
    let finished = min total (s.Inltune_ga.Evolve.g_gen + 1) in
    let elapsed = Inltune_support.Pool.now () -. t0 in
    let eta =
      if finished >= total then 0.0
      else elapsed /. Float.of_int finished *. Float.of_int (total - finished)
    in
    let hit_pct =
      let denom = s.Inltune_ga.Evolve.g_cache_hits + s.Inltune_ga.Evolve.g_evals in
      if denom = 0 then 0.0
      else 100.0 *. Float.of_int s.Inltune_ga.Evolve.g_cache_hits /. Float.of_int denom
    in
    let util =
      let busy = Float.of_int s.Inltune_ga.Evolve.g_busy_ns in
      let idle = Float.of_int s.Inltune_ga.Evolve.g_idle_ns in
      if busy +. idle <= 0.0 then "  - " else Printf.sprintf "%3.0f%%" (100.0 *. busy /. (busy +. idle))
    in
    Printf.eprintf
      "[inltune] gen %2d/%d  best %.4f  mean %.4f  div %.2f  fresh %3d  hit %5.1f%%  quar %2d  \
       stolen %4d  util %s  %5.2fs/gen  eta %.0fs\n%!"
      s.Inltune_ga.Evolve.g_gen gens s.Inltune_ga.Evolve.g_best s.Inltune_ga.Evolve.g_mean
      s.Inltune_ga.Evolve.g_diversity s.Inltune_ga.Evolve.g_fresh hit_pct
      s.Inltune_ga.Evolve.g_quarantined s.Inltune_ga.Evolve.g_stolen util
      s.Inltune_ga.Evolve.g_wall_s eta

let tune_cmd =
  let run scenario pop gens seed max_retries domains fcache checkpoint resume planfile
      tune_passes evolve_policy dataset_file gp_out trace profile progress =
    setup_trace trace;
    setup_profile profile;
    let domains = domains_of_flag domains in
    setup_fitness_cache fcache;
    let id = tuner_scenario_of_flag scenario in
    let budget = { Tuner.pop; gens; seed } in
    let plan = plan_of_flag planfile in
    if tune_passes && Option.is_some plan then
      die "--tune-passes evolves the plan itself; it cannot be combined with --plan";
    if evolve_policy && tune_passes then
      die "--evolve-policy and --tune-passes are different searches; pick one";
    if evolve_policy && Option.is_some plan then
      die "--evolve-policy runs under the default plan; it cannot be combined with --plan";
    let on_generation (p : Inltune_ga.Evolve.progress) =
      Printf.eprintf "[inltune]   gen %2d: best %.4f mean %.4f (%d evals)\n%!"
        p.Inltune_ga.Evolve.generation p.Inltune_ga.Evolve.best_fitness
        p.Inltune_ga.Evolve.mean_fitness p.Inltune_ga.Evolve.evaluations
    in
    (* --progress upgrades the basic per-generation line to the telemetry
       reporter; exactly one of the two prints. *)
    let on_generation = if progress then None else Some on_generation in
    let on_stats = if progress then Some (progress_reporter ~gens) else None in
    let report_ga (ga : Inltune_ga.Evolve.result) =
      Printf.printf "distinct evaluations: %d (cache hits: %d)\n"
        ga.Inltune_ga.Evolve.evaluations ga.Inltune_ga.Evolve.cache_hits;
      let failures = ga.Inltune_ga.Evolve.failures in
      if failures > 0 then
        Printf.printf "evaluation failures: %d (quarantined genotypes: %d)\n" failures
          ga.Inltune_ga.Evolve.quarantined
    in
    if evolve_policy then begin
      let spec = Tuner.spec_of id in
      (* --dataset enables the agreement pre-filter: the flip-oracle labels
         are loaded when the file already exists (policy.dataset_reused) and
         computed — with the file as the resumable journal — when not. *)
      let dataset =
        match dataset_file with
        | None -> None
        | Some path ->
          let cfg =
            {
              P.Dataset.default_config with
              P.Dataset.scenario = spec.Tuner.scenario;
              platform = spec.Tuner.platform;
              goal = spec.Tuner.goal;
            }
          in
          let examples =
            P.Dataset.load_or_generate ~file:path
              ~on_benchmark:(fun b n -> Printf.eprintf "[inltune] labeling %s: %d sites\n%!" b n)
              cfg W.Suites.spec
          in
          Some (P.Dataset.to_training examples)
      in
      let params =
        {
          Gp.Evolve.default_params with
          Gp.Evolve.pop_size = pop;
          generations = gens;
          seed;
          domains;
        }
      in
      let guard = { Gp.Evolve.default_guard with Inltune_ga.Evolve.max_retries } in
      let r =
        checkpointed (fun () ->
            Gp.Evolve.run ?on_generation ?on_stats ~guard ?checkpoint ?resume ?dataset
              ~suite:W.Suites.spec ~scenario:spec.Tuner.scenario ~platform:spec.Tuner.platform
              ~goal:spec.Tuner.goal ~params ())
      in
      Printf.printf "scenario: %s\n" spec.Tuner.label;
      (match r.Gp.Evolve.stopped with
      | Some reason -> Printf.printf "search stopped early: %s\n" reason
      | None -> ());
      Printf.printf "best policy: %s\n" (Gp.Tree.to_text r.Gp.Evolve.best);
      Printf.printf "  i.e. %s\n" (Gp.Tree.pretty ~names:P.Features.names r.Gp.Evolve.best);
      Printf.printf "fitness (geomean vs default + parsimony, lower is better): %.4f\n"
        r.Gp.Evolve.best_fitness;
      Printf.printf "distinct evaluations: %d (cache hits: %d)\n" r.Gp.Evolve.evaluations
        r.Gp.Evolve.cache_hits;
      if r.Gp.Evolve.prefilter_candidates > 0 then
        Printf.printf "pre-filter: skipped %d of %d fresh trees (%.0f%% simulation avoidance)\n"
          r.Gp.Evolve.prefilter_skips r.Gp.Evolve.prefilter_candidates
          (100.0
          *. Float.of_int r.Gp.Evolve.prefilter_skips
          /. Float.of_int r.Gp.Evolve.prefilter_candidates);
      if r.Gp.Evolve.failures > 0 then
        Printf.printf "evaluation failures: %d (quarantined genotypes: %d)\n" r.Gp.Evolve.failures
          r.Gp.Evolve.quarantined;
      match gp_out with
      | Some path ->
        Gp.Tree.save path r.Gp.Evolve.best;
        Printf.printf "wrote policy tree to %s\n" path
      | None -> ()
    end
    else if tune_passes then begin
      let o =
        checkpointed (fun () ->
            Tuner.tune_plan ~budget ?on_generation ?on_stats ?checkpoint ?resume ~max_retries
              ?domains id)
      in
      Printf.printf "scenario: %s\n" o.Tuner.p_spec.Tuner.label;
      (match o.Tuner.p_degraded with
      | Some reason -> Printf.printf "search stopped early: %s\n" reason
      | None -> ());
      Printf.printf "best heuristic: %s\n" (Heuristic.to_string o.Tuner.p_heuristic);
      Printf.printf "best plan:\n%s" (Plan.to_string o.Tuner.p_plan);
      Printf.printf "fitness (geomean vs default, lower is better): %.4f\n" o.Tuner.p_fitness;
      report_ga o.Tuner.p_ga
    end
    else begin
      let o =
        checkpointed (fun () ->
            Tuner.tune ~budget ?on_generation ?on_stats ?checkpoint ?resume ~max_retries
              ?domains ?plan id)
      in
      Printf.printf "scenario: %s\n" o.Tuner.spec.Tuner.label;
      (match o.Tuner.degraded with
      | Some reason -> Printf.printf "search stopped early: %s\n" reason
      | None -> ());
      Printf.printf "best heuristic: %s\n" (Heuristic.to_string o.Tuner.heuristic);
      Printf.printf "fitness (geomean vs default, lower is better): %.4f\n" o.Tuner.fitness;
      report_ga o.Tuner.ga
    end
  in
  let scenario =
    Arg.(
      value
      & opt string "adapt"
      & info [ "scenario"; "s" ]
          ~doc:"Tuning scenario: adapt, opt:bal, opt:tot, adapt-ppc, opt:bal-ppc")
  in
  let pop = Arg.(value & opt int 16 & info [ "pop" ] ~doc:"GA population size") in
  let gens = Arg.(value & opt int 10 & info [ "generations"; "g" ] ~doc:"GA generations") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"GA random seed") in
  let tune_passes =
    Arg.(
      value & flag
      & info [ "tune-passes" ]
          ~doc:
            "Co-evolve the optimization plan (pass toggles, strengths, payoff-pass order) \
             together with the five heuristic parameters, over the composite plan genome.")
  in
  let evolve_policy =
    Arg.(
      value & flag
      & info [ "evolve-policy" ]
          ~doc:
            "Genetic programming instead of parameter tuning: evolve the inlining rule's \
             structure as a typed expression tree over the call-site features, rather than \
             the five thresholds of the fixed Fig. 3/4 rule.")
  in
  let dataset_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "dataset" ] ~docv:"FILE"
          ~doc:
            "Flip-oracle dataset (see the $(b,dataset) subcommand) enabling the \
             agreement pre-filter under $(b,--evolve-policy): trees whose label agreement \
             trails the current elite's are surrogate-scored without simulation.  Loaded \
             when the file exists; labeled from scratch (resumably) when not.")
  in
  let gp_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "gp-out" ] ~docv:"FILE"
          ~doc:"Write the best evolved policy tree to $(docv) (inltune-gp v1 format).")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Live search telemetry on stderr: one line per generation with best/mean fitness, \
             population diversity, fresh evaluations, cache hit rate, quarantine size, pool \
             steal counts and utilization, per-generation wall time, and an ETA.")
  in
  Cmd.v (Cmd.info "tune" ~doc:"GA-tune the inlining heuristic for a scenario")
    Term.(
      const run $ scenario $ pop $ gens $ seed $ max_retries_arg $ domains_arg
      $ fitness_cache_arg $ checkpoint_arg $ resume_arg $ plan_arg $ tune_passes
      $ evolve_policy $ dataset_file $ gp_out $ trace_arg $ profile_arg $ progress)

(* --- export / run-file ----------------------------------------------------- *)

let export_cmd =
  let run bench file =
    let bm = find_bench bench in
    let text = Inltune_jir.Text.to_string (W.Suites.program bm) in
    match file with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" path
  in
  let file =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Output file (default stdout)")
  in
  Cmd.v (Cmd.info "export" ~doc:"Serialize a benchmark to the JIR text format")
    Term.(const run $ bench_arg $ file)

let run_file_cmd =
  let run path scenario platform hstring planfile trace =
    setup_trace trace;
    let ic = open_in path in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    match Inltune_jir.Text.parse src with
    | Error e ->
      Printf.eprintf "%s: line %d: %s\n" path e.Inltune_jir.Text.line e.Inltune_jir.Text.msg;
      exit 1
    | Ok p ->
      let plat = platform_of_flag platform in
      let scen = scenario_of_flag scenario in
      let heuristic = heuristic_of_flag hstring in
      let plan = plan_of_flag planfile in
      let m = Runner.measure (Machine.config ?plan scen heuristic) plat p in
      Printf.printf "%s under %s on %s with %s\n" p.Inltune_jir.Ir.pname scenario platform
        (Heuristic.to_string heuristic);
      Printf.printf "  total: %d cycles   running: %d cycles   compile: %d cycles\n"
        m.Runner.total_cycles m.Runner.running_cycles m.Runner.first_compile_cycles;
      Printf.printf "  result: %d\n" m.Runner.ret
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"JIR text file")
  in
  Cmd.v (Cmd.info "run-file" ~doc:"Simulate a program written in the JIR text format")
    Term.(const run $ path $ scenario_arg $ platform_arg $ heuristic_arg $ plan_arg $ trace_arg)

(* --- plan ------------------------------------------------------------------- *)

let plan_cmd =
  let run file =
    match file with
    | None -> print_string (Plan.to_string Plan.default)
    | Some path -> (
      match Plan.of_string (read_text_file path) with
      | Ok p -> print_string (Plan.to_string p)
      | Error msg -> die "bad plan %s: %s" path msg)
  in
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Plan file to validate and reprint in canonical form.  Without it, print the \
             built-in default plan (the historical pass schedule).")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Print the default optimization plan, or validate and canonicalize a plan file")
    Term.(const run $ file)

(* --- knapsack --------------------------------------------------------------- *)

let knapsack_cmd =
  let run bench platform limit =
    let bm = find_bench bench in
    let plat = platform_of_flag platform in
    let plan, kn = Knapsack.measure ~expansion_limit:limit plat bm in
    let off = Measure.run_no_inlining ~scenario:Machine.Opt ~platform:plat bm in
    let def = Measure.run_default ~scenario:Machine.Opt ~platform:plat bm in
    Printf.printf "knapsack oracle on %s (growth budget %.0f%%):\n" bench (100.0 *. limit);
    Printf.printf "  edges: %d selected of %d candidates; growth %d / %d size units\n"
      plan.Knapsack.chosen plan.Knapsack.candidates plan.Knapsack.spent plan.Knapsack.budget;
    Printf.printf "  running: %.0f cycles (no-inline %.0f, default heuristic %.0f)\n"
      kn.Measure.running off.Measure.running def.Measure.running;
    Printf.printf "  vs no-inline: %.3f   vs default: %.3f\n"
      (kn.Measure.running /. off.Measure.running)
      (kn.Measure.running /. def.Measure.running)
  in
  let limit =
    Arg.(value & opt float 0.10 & info [ "limit" ] ~doc:"Code-growth budget (fraction)")
  in
  Cmd.v
    (Cmd.info "knapsack" ~doc:"Run the Arnold et al. knapsack-oracle inlining baseline")
    Term.(const run $ bench_arg $ platform_arg $ limit)

(* --- search ------------------------------------------------------------------ *)

let search_cmd =
  let run algo budget seed =
    let suite = W.Suites.spec in
    let fitness =
      Objective.genome_fitness ~suite ~scenario:Machine.Opt ~platform:Platform.x86
        ~goal:Objective.Total
    in
    let best, fit, evals =
      match algo with
      | "hill" ->
        let r = Inltune_ga.Localsearch.hill_climb ~spec:Params.genome_spec ~budget ~seed ~fitness () in
        (r.Inltune_ga.Localsearch.best, r.Inltune_ga.Localsearch.best_fitness,
         r.Inltune_ga.Localsearch.evaluations)
      | "anneal" ->
        let r = Inltune_ga.Localsearch.anneal ~spec:Params.genome_spec ~budget ~seed ~fitness () in
        (r.Inltune_ga.Localsearch.best, r.Inltune_ga.Localsearch.best_fitness,
         r.Inltune_ga.Localsearch.evaluations)
      | "random" ->
        let b, f = Inltune_ga.Evolve.random_search ~spec:Params.genome_spec ~budget ~seed ~fitness () in
        (b, f, budget)
      | s -> die "unknown searcher '%s' (valid: hill, anneal, random)" s
    in
    Printf.printf "%s search: best %s  fitness %.4f  (%d evaluations)\n" algo
      (Heuristic.to_string (Heuristic.of_array best))
      fit evals
  in
  let algo =
    Arg.(value & opt string "hill" & info [ "algo"; "a" ] ~doc:"hill, anneal, or random")
  in
  let budget = Arg.(value & opt int 80 & info [ "budget" ] ~doc:"Evaluation budget") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed") in
  Cmd.v
    (Cmd.info "search" ~doc:"Tune with a local-search baseline instead of the GA")
    Term.(const run $ algo $ budget $ seed)

(* --- trace-summary --------------------------------------------------------- *)

let trace_summary_cmd =
  let run path folded =
    (* A string positional, not [Arg.file]: a missing trace must follow the
       CLI error convention (one stderr line, exit 2), not cmdliner's parse
       error and exit 124. *)
    let records, malformed =
      try Inltune_obs.Summary.load_file path
      with Sys_error msg -> die "cannot read trace file: %s" msg
    in
    if malformed > 0 then
      Printf.eprintf "warning: skipped %d malformed line(s) in %s\n%!" malformed path;
    if folded then
      List.iter print_endline (Inltune_obs.Summary.folded records)
    else begin
      (* Counter-only traces (every sink flushes metric snapshots on close) must
         say so explicitly, not render a counters table that looks like a run. *)
      if not (Inltune_obs.Summary.has_events records) then
        Printf.printf "no trace events in %s%s\n" path
          (if records = [] then "" else " (counters only)");
      match Inltune_obs.Summary.tables records with
      | [] -> ()
      | tables ->
        if not (Inltune_obs.Summary.has_events records) then print_newline ();
        List.iteri
          (fun i t ->
            if i > 0 then print_newline ();
            Inltune_support.Table.print t)
          tables
    end
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"JSONL trace file")
  in
  let folded =
    Arg.(
      value & flag
      & info [ "folded" ]
          ~doc:
            "Emit folded-stack lines ('path;to;span <self-µs>') from the trace's profile \
             nodes instead of tables; pipe into flamegraph.pl or inferno-flamegraph.")
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:"Aggregate a JSONL trace (from --trace or INLTUNE_TRACE) into report tables")
    Term.(const run $ path $ folded)

(* --- learned policies ------------------------------------------------------ *)

let suite_of_flag = function
  | "spec" -> W.Suites.spec
  | "dacapo" -> W.Suites.dacapo
  | "all" -> W.Suites.all
  | s -> die "unknown suite '%s' (valid: spec, dacapo, all)" s

let benches_of_flags suite bench_csv =
  match bench_csv with
  | "" -> suite_of_flag suite
  | csv -> List.map find_bench (String.split_on_char ',' csv)

let goal_of_flag s =
  try Objective.goal_of_string s
  with Invalid_argument _ -> die "unknown goal '%s' (valid: running, total, balance)" s

let load_policy path =
  match P.Store.load path with
  | Ok store -> store
  | Error msg -> die "bad policy file %s: %s" path msg

let features_cmd =
  let run bench =
    let bm = find_bench bench in
    let p = W.Suites.program bm in
    let ctx = P.Features.make_ctx p in
    let sites = P.Features.of_program ctx p in
    Printf.printf "# %s\n" (String.concat " " (Array.to_list P.Features.names));
    Array.iter
      (fun ((s : Policy.site), x) ->
        Printf.printf "%s -> %s : %s\n"
          p.Inltune_jir.Ir.methods.(s.Policy.owner).Inltune_jir.Ir.mname
          p.Inltune_jir.Ir.methods.(s.Policy.callee).Inltune_jir.Ir.mname
          (P.Features.vector_to_string x))
      sites
  in
  Cmd.v
    (Cmd.info "features"
       ~doc:"Dump the feature vector of every static call site of a benchmark")
    Term.(const run $ bench_arg)

let dataset_cmd =
  let run out suite bench_csv scenario platform hstring goal max_sites iterations
      max_retries domains trace =
    setup_trace trace;
    (* The flip-oracle labeling loop is sequential by design (the output file
       is append-ordered and resumable), but its measurements share the
       process-wide pool default with every other subcommand — validate and
       apply the bound here too so the flag behaves uniformly. *)
    let (_ : int option) = domains_of_flag domains in
    let cfg =
      {
        P.Dataset.scenario = scenario_of_flag scenario;
        platform = platform_of_flag platform;
        heuristic = heuristic_of_flag hstring;
        goal = goal_of_flag goal;
        iterations;
        max_sites;
        max_retries;
      }
    in
    let benches = benches_of_flags suite bench_csv in
    let examples =
      P.Dataset.generate ~resume:out
        ~on_benchmark:(fun b n -> Printf.eprintf "[inltune] labeling %s: %d sites\n%!" b n)
        cfg benches
    in
    let flips = List.length (List.filter (fun e -> e.P.Dataset.x_label <> e.P.Dataset.x_base) examples) in
    Printf.printf "%s: %d examples (%d oracle flips) over %d benchmarks\n" out
      (List.length examples) flips (List.length benches)
  in
  let out =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Output JSONL dataset.  Append-only and resumable: already-labeled sites in \
               the file are kept, only missing ones are measured.")
  in
  let suite =
    Arg.(value & opt string "spec" & info [ "suite" ] ~doc:"Benchmark suite: spec, dacapo, or all")
  in
  let bench_csv =
    Arg.(value & opt string "" & info [ "bench" ] ~docv:"NAMES"
         ~doc:"Comma-separated benchmark names (overrides --suite)")
  in
  let goal =
    Arg.(value & opt string "total" & info [ "goal" ] ~doc:"Oracle metric: running, total, or balance")
  in
  let max_sites =
    Arg.(value & opt int 20 & info [ "max-sites" ] ~docv:"N"
         ~doc:"Flip measurements per benchmark (0 = every site)")
  in
  let iters = Arg.(value & opt int 3 & info [ "iterations" ] ~doc:"VM iterations per measurement") in
  Cmd.v
    (Cmd.info "dataset"
       ~doc:"Label call-site inlining decisions with the flip oracle (resumable)")
    Term.(
      const run $ out $ suite $ bench_csv $ scenario_arg $ platform_arg $ heuristic_arg
      $ goal $ max_sites $ iters $ max_retries_arg $ domains_arg $ trace_arg)

let train_policy_cmd =
  let run data out kind hstring max_depth min_leaf holdout =
    let store =
      match kind with
      | "threshold" -> P.Store.Threshold (heuristic_of_flag hstring)
      | "tree" -> (
        match data with
        | None -> die "training a tree needs a dataset (give the JSONL file as DATASET)"
        | Some path ->
          let examples, bad = P.Dataset.load path in
          if bad > 0 then
            Printf.eprintf "warning: skipped %d malformed line(s) in %s\n%!" bad path;
          if examples = [] then die "dataset %s holds no examples" path;
          let pairs = P.Dataset.to_training examples in
          let train_set, test_set =
            if holdout >= 2 && Array.length pairs >= holdout then P.Cart.split ~k:holdout pairs
            else (pairs, [||])
          in
          let params = { P.Cart.default_params with P.Cart.max_depth; min_leaf } in
          let tree = P.Cart.train ~params train_set in
          Printf.printf "examples: %d train / %d test\n" (Array.length train_set)
            (Array.length test_set);
          Printf.printf "tree: %d nodes, depth %d\n" (P.Dtree.size tree) (P.Dtree.depth tree);
          Printf.printf "train accuracy: %.3f\n" (P.Cart.accuracy tree train_set);
          if Array.length test_set > 0 then
            Printf.printf "test accuracy:  %.3f\n" (P.Cart.accuracy tree test_set);
          print_string (P.Dtree.pretty ~names:P.Features.names tree);
          P.Store.Tree tree)
      | s -> die "unknown policy kind '%s' (valid: tree, threshold)" s
    in
    P.Store.save out store;
    Printf.printf "wrote %s policy to %s\n" (P.Store.kind_name store) out
  in
  let data =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"DATASET"
         ~doc:"JSONL dataset from the $(b,dataset) command (required for --kind tree)")
  in
  let out =
    Arg.(value & opt string "policy.txt" & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output policy file")
  in
  let kind =
    Arg.(value & opt string "tree" & info [ "kind" ] ~doc:"Policy kind: tree or threshold")
  in
  let max_depth = Arg.(value & opt int 6 & info [ "max-depth" ] ~doc:"CART depth limit") in
  let min_leaf = Arg.(value & opt int 3 & info [ "min-leaf" ] ~doc:"CART minimum leaf size") in
  let holdout =
    Arg.(value & opt int 4 & info [ "holdout" ] ~docv:"K"
         ~doc:"Hold out every K-th example as the test split (0 disables)")
  in
  Cmd.v
    (Cmd.info "train-policy" ~doc:"Train a decision-tree inlining policy from a dataset")
    Term.(const run $ data $ out $ kind $ heuristic_arg $ max_depth $ min_leaf $ holdout)

let eval_policy_cmd =
  let run path print_only suite bench_csv scenario platform iterations no_tuned tuned_params
      pop gens seed domains trace =
    setup_trace trace;
    let domains = domains_of_flag domains in
    let store = load_policy path in
    if print_only then print_string (P.Store.to_string store)
    else begin
      let scen = scenario_of_flag scenario in
      let plat = platform_of_flag platform in
      let benches = benches_of_flags suite bench_csv in
      let tuned =
        if no_tuned then None
        else if tuned_params <> "" then Some (heuristic_of_flag tuned_params)
        else begin
          Printf.eprintf "[inltune] GA-tuning the comparison heuristic (use --no-tuned to skip)\n%!";
          let budget = { Tuner.pop; gens; seed } in
          let o = Tuner.tune ~budget ?domains Tuner.Opt_tot_x86 in
          Some o.Tuner.heuristic
        end
      in
      let report =
        P.Evaluate.compare ~iterations ?tuned ~scenario:scen ~platform:plat store benches
      in
      Inltune_support.Table.print (P.Evaluate.table report)
    end
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY" ~doc:"Stored policy file")
  in
  let print_only =
    Arg.(value & flag & info [ "print" ]
         ~doc:"Parse, validate, and reprint the policy in canonical form; no simulation")
  in
  let suite =
    Arg.(value & opt string "dacapo" & info [ "suite" ] ~doc:"Benchmark suite: spec, dacapo, or all")
  in
  let bench_csv =
    Arg.(value & opt string "" & info [ "bench" ] ~docv:"NAMES"
         ~doc:"Comma-separated benchmark names (overrides --suite)")
  in
  let iters = Arg.(value & opt int 3 & info [ "iterations" ] ~doc:"VM iterations (>= 2)") in
  let no_tuned =
    Arg.(value & flag & info [ "no-tuned" ] ~doc:"Skip the GA-tuned comparison column")
  in
  let tuned_params =
    Arg.(value & opt string "" & info [ "tuned" ] ~docv:"PARAMS"
         ~doc:"Use this heuristic for the tuned column instead of running the GA")
  in
  let pop = Arg.(value & opt int 16 & info [ "pop" ] ~doc:"GA population size") in
  let gens = Arg.(value & opt int 10 & info [ "generations"; "g" ] ~doc:"GA generations") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"GA random seed") in
  Cmd.v
    (Cmd.info "eval-policy"
       ~doc:"Run a stored policy on a suite and compare default vs GA-tuned vs learned")
    Term.(
      const run $ path $ print_only $ suite $ bench_csv $ scenario_arg $ platform_arg $ iters
      $ no_tuned $ tuned_params $ pop $ gens $ seed $ domains_arg $ trace_arg)

(* --- gp ------------------------------------------------------------------- *)

let load_gp_tree path =
  match Gp.Tree.load ~dim:P.Features.dim path with
  | Ok t -> t
  | Error msg -> die "bad policy tree %s: %s" path msg

let gp_print_cmd =
  let run path pretty =
    let t = load_gp_tree path in
    if pretty then print_endline (Gp.Tree.pretty ~names:P.Features.names t)
    else print_string (Gp.Tree.to_string t)
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TREE"
         ~doc:"Policy tree file (inltune-gp v1)")
  in
  let pretty =
    Arg.(value & flag & info [ "pretty" ]
         ~doc:"Render as an infix expression over feature names instead of the canonical form")
  in
  Cmd.v
    (Cmd.info "print"
       ~doc:"Parse, validate, and reprint an evolved policy tree in canonical form")
    Term.(const run $ path $ pretty)

let gp_eval_cmd =
  let run path suite bench_csv scenario platform iterations fcache domains trace =
    setup_trace trace;
    let (_ : int option) = domains_of_flag domains in
    setup_fitness_cache fcache;
    let tree = load_gp_tree path in
    let scen = scenario_of_flag scenario in
    let plat = platform_of_flag platform in
    let benches = benches_of_flags suite bench_csv in
    let report =
      P.Evaluate.compare_many ~iterations ~scenario:scen ~platform:plat
        [ ("gp", fun bm -> Gp.Fitness.measure ~iterations ~scenario:scen ~platform:plat tree bm) ]
        benches
    in
    Inltune_support.Table.print (P.Evaluate.many_table report)
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TREE"
         ~doc:"Policy tree file (inltune-gp v1)")
  in
  let suite =
    Arg.(value & opt string "dacapo" & info [ "suite" ] ~doc:"Benchmark suite: spec, dacapo, or all")
  in
  let bench_csv =
    Arg.(value & opt string "" & info [ "bench" ] ~docv:"NAMES"
         ~doc:"Comma-separated benchmark names (overrides --suite)")
  in
  let iters = Arg.(value & opt int 3 & info [ "iterations" ] ~doc:"VM iterations per measurement") in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Run an evolved policy tree on a suite and report time ratios vs default")
    Term.(
      const run $ path $ suite $ bench_csv $ scenario_arg $ platform_arg $ iters
      $ fitness_cache_arg $ domains_arg $ trace_arg)

let gp_cmd =
  Cmd.group
    (Cmd.info "gp" ~doc:"Inspect and evaluate evolved policy trees (see tune --evolve-policy)")
    [ gp_print_cmd; gp_eval_cmd ]

(* --- experiment ----------------------------------------------------------- *)

(* The learned-policy row lives here rather than in Experiments because the
   policy library sits above the core library in the build: train on
   SPECjvm98 (GA + flip-oracle dataset + CART), evaluate on unseen
   DaCapo+JBB against the default and GA-tuned heuristics. *)
let policy_experiment ~verbose ~budget ?domains () =
  let say fmt = Printf.ksprintf (fun s -> if verbose then Printf.eprintf "%s%!" s) fmt in
  say "[inltune] GA-tuning Opt:Tot on SPECjvm98\n";
  let o = Tuner.tune ~budget ?domains Tuner.Opt_tot_x86 in
  say "[inltune] tuned heuristic: %s\n" (Heuristic.to_string o.Tuner.heuristic);
  let cfg = { P.Dataset.default_config with P.Dataset.max_sites = 12 } in
  let examples =
    P.Dataset.generate
      ~on_benchmark:(fun b n -> say "[inltune] labeling %s: %d sites\n" b n)
      cfg W.Suites.spec
  in
  let tree = P.Cart.train (P.Dataset.to_training examples) in
  say "[inltune] trained tree: %d nodes, depth %d\n" (P.Dtree.size tree) (P.Dtree.depth tree);
  let report =
    P.Evaluate.compare ~tuned:o.Tuner.heuristic ~scenario:Machine.Opt ~platform:Platform.x86
      (P.Store.Tree tree) W.Suites.dacapo
  in
  Inltune_support.Table.print (P.Evaluate.table report)

let experiment_cmd =
  let run id pop gens seed quiet max_retries domains fcache checkpoint resume trace =
    setup_trace trace;
    let domains = domains_of_flag domains in
    setup_fitness_cache fcache;
    let budget = { Tuner.pop; gens; seed } in
    if id = "policy" then policy_experiment ~verbose:(not quiet) ~budget ?domains ()
    else begin
      (* One experiment tunes several scenarios, so the checkpoint/resume paths
         here are bases: each GA run appends ".<scenario-slug>". *)
      let ctx =
        Experiments.make_ctx ~verbose:(not quiet) ~budget ?checkpoint ?resume ~max_retries
          ?domains ()
      in
      checkpointed (fun () -> Experiments.run_one ctx id)
    end
  in
  let id =
    Arg.(
      required
      & pos 0 (some (Arg.enum (List.map (fun s -> (s, s)) (Experiments.known @ [ "policy" ]))))
          None
      & info [] ~docv:"EXPERIMENT"
          ~doc:"One of: table1 fig1 fig2 table4 fig5..fig10 table5 sweep policy all")
  in
  let pop = Arg.(value & opt int 16 & info [ "pop" ] ~doc:"GA population size") in
  let gens = Arg.(value & opt int 10 & info [ "generations"; "g" ] ~doc:"GA generations") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"GA random seed") in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress GA progress on stderr") in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure from the paper")
    Term.(
      const run $ id $ pop $ gens $ seed $ quiet $ max_retries_arg $ domains_arg
      $ fitness_cache_arg $ checkpoint_arg $ resume_arg $ trace_arg)

(* --- serve / client ------------------------------------------------------- *)

module Server = Inltune_serve.Server
module Sproto = Inltune_serve.Proto
module Sclient = Inltune_serve.Client
module J = Inltune_obs.Json

let socket_arg =
  let doc = "Unix socket path to listen/connect on." in
  Arg.(value & opt string "inltune.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Listen/connect on 127.0.0.1:$(docv) instead of a Unix socket." in
  Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc)

let endpoint_of_flags socket port =
  if port > 0 then Sproto.Tcp port
  else if socket <> "" then Sproto.Unix_path socket
  else die "need --socket PATH or --port N"

let serve_cmd =
  let d = Server.default_config in
  let permits =
    Arg.(value & opt int d.Server.permits
         & info [ "permits" ] ~docv:"N" ~doc:"Concurrently executing requests.")
  in
  let queue =
    Arg.(value & opt int d.Server.queue_cap
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue bound; requests beyond it are shed with an \
                   $(b,overloaded) reply.")
  in
  let quota_rate =
    Arg.(value & opt float d.Server.quota_rate
         & info [ "quota-rate" ] ~docv:"R"
             ~doc:"Per-tenant request rate (requests/second); <= 0 disables quotas.")
  in
  let quota_burst =
    Arg.(value & opt float d.Server.quota_burst
         & info [ "quota-burst" ] ~docv:"B" ~doc:"Per-tenant burst size.")
  in
  let deadline_ms =
    Arg.(value & opt int d.Server.default_deadline_ms
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline applied when a request carries none; 0 \
                   means none.")
  in
  let degrade_after =
    Arg.(value & opt int d.Server.degrade_after
         & info [ "degrade-after" ] ~docv:"N"
             ~doc:"Pressure events (sheds + failures) within the window that switch the \
                   daemon to degraded, cache-only mode.")
  in
  let cooldown =
    Arg.(value & opt float d.Server.cooldown_s
         & info [ "cooldown" ] ~docv:"S"
             ~doc:"Seconds without pressure before leaving degraded mode.")
  in
  let drain =
    Arg.(value & opt float d.Server.drain_timeout_s
         & info [ "drain-timeout" ] ~docv:"S"
             ~doc:"Bound on draining in-flight work at SIGTERM.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress lifecycle notes on stderr.")
  in
  let run socket port permits queue quota_rate quota_burst deadline_ms max_retries
      degrade_after cooldown drain quiet domains fitness_cache trace =
    ignore (domains_of_flag domains);
    setup_trace trace;
    setup_fitness_cache fitness_cache;
    let config =
      {
        Server.default_config with
        Server.permits;
        queue_cap = queue;
        quota_rate;
        quota_burst;
        default_deadline_ms = deadline_ms;
        max_retries;
        degrade_after;
        cooldown_s = cooldown;
        drain_timeout_s = drain;
        quiet;
      }
    in
    Server.run ~config (endpoint_of_flags socket port)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tuning daemon: accept measure/tune requests from concurrent clients \
          over a line-delimited JSON protocol, multiplexed onto one shared evaluation \
          pool and fitness cache")
    Term.(
      const run $ socket_arg $ port_arg $ permits $ queue $ quota_rate $ quota_burst
      $ deadline_ms $ max_retries_arg $ degrade_after $ cooldown $ drain $ quiet
      $ domains_arg $ fitness_cache_arg $ trace_arg)

let tenant_arg =
  let doc = "Tenant name for quotas and cache attribution." in
  Arg.(value & opt string "anon" & info [ "tenant" ] ~docv:"NAME" ~doc)

let reqid_arg =
  let doc = "Idempotency id: retrying the same id replays the original reply." in
  Arg.(value & opt (some string) None & info [ "id" ] ~docv:"ID" ~doc)

let req_deadline_arg =
  let doc = "Per-request deadline in milliseconds (0 = none)." in
  Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let client_timeout_arg =
  let doc = "Client-side seconds to wait for the reply." in
  Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"S" ~doc)

let base_request_fields ~tenant ~id ~deadline_ms op =
  [ ("op", J.Str op); ("tenant", J.Str tenant) ]
  @ (match id with Some i -> [ ("id", J.Str i) ] | None -> [])
  @
  if deadline_ms > 0 then [ ("deadline_ms", J.Num (float_of_int deadline_ms)) ] else []

(* The client prints the raw reply line and exits 0 for any reply — the
   reply's "status" field is the protocol-level outcome.  Exit 1 means no
   reply (connection refused, timeout, server gone). *)
let client_rpc endpoint timeout fields =
  match Sclient.rpc ~timeout_s:timeout endpoint (J.encode (J.Obj fields)) with
  | Ok reply -> print_endline reply
  | Error e ->
    Printf.eprintf "inltune client: %s\n%!" e;
    exit 1

let client_ping_cmd =
  let run socket port timeout =
    client_rpc (endpoint_of_flags socket port) timeout [ ("op", J.Str "ping") ]
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Liveness check")
    Term.(const run $ socket_arg $ port_arg $ client_timeout_arg)

let client_stats_cmd =
  let run socket port timeout =
    client_rpc (endpoint_of_flags socket port) timeout [ ("op", J.Str "stats") ]
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Daemon counters and mode snapshot")
    Term.(const run $ socket_arg $ port_arg $ client_timeout_arg)

let client_measure_cmd =
  let bench =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc:"Benchmark name")
  in
  let iters = Arg.(value & opt int 3 & info [ "iterations" ] ~doc:"VM iterations") in
  let run socket port timeout tenant id deadline_ms bench scenario platform hstring iters =
    client_rpc (endpoint_of_flags socket port) timeout
      (base_request_fields ~tenant ~id ~deadline_ms "measure"
      @ [
          ("bench", J.Str bench);
          ("scenario", J.Str scenario);
          ("platform", J.Str platform);
          ("heuristic", J.Str hstring);
          ("iterations", J.Num (float_of_int iters));
        ])
  in
  Cmd.v
    (Cmd.info "measure" ~doc:"Measure one benchmark under a heuristic via the daemon")
    Term.(
      const run $ socket_arg $ port_arg $ client_timeout_arg $ tenant_arg $ reqid_arg
      $ req_deadline_arg $ bench $ scenario_arg $ platform_arg $ heuristic_arg $ iters)

let client_tune_cmd =
  let scenario =
    let doc =
      Printf.sprintf "Tuning scenario: %s." (String.concat ", " Tuner.scenario_names)
    in
    Arg.(value & opt string "opt:tot" & info [ "scenario"; "s" ] ~docv:"SCENARIO" ~doc)
  in
  let pop = Arg.(value & opt int 8 & info [ "pop" ] ~doc:"GA population size") in
  let gens = Arg.(value & opt int 3 & info [ "generations"; "g" ] ~doc:"GA generations") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"GA random seed") in
  let suite =
    Arg.(value & opt string ""
         & info [ "bench" ] ~docv:"NAMES"
             ~doc:"Comma-separated training benchmarks (default: the full SPEC suite).")
  in
  let run socket port timeout tenant id deadline_ms scenario pop gens seed suite =
    let suite_field =
      match String.split_on_char ',' suite |> List.filter (fun s -> String.trim s <> "") with
      | [] -> []
      | names -> [ ("suite", J.List (List.map (fun n -> J.Str (String.trim n)) names)) ]
    in
    client_rpc (endpoint_of_flags socket port) timeout
      (base_request_fields ~tenant ~id ~deadline_ms "tune"
      @ [
          ("scenario", J.Str scenario);
          ("pop", J.Num (float_of_int pop));
          ("gens", J.Num (float_of_int gens));
          ("seed", J.Num (float_of_int seed));
        ]
      @ suite_field)
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"GA-tune a scenario via the daemon")
    Term.(
      const run $ socket_arg $ port_arg $ client_timeout_arg $ tenant_arg $ reqid_arg
      $ req_deadline_arg $ scenario $ pop $ gens $ seed $ suite)

let client_cmd =
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running inltune serve daemon")
    [ client_ping_cmd; client_stats_cmd; client_measure_cmd; client_tune_cmd ]

let main_cmd =
  let doc = "GA-tuned inlining heuristics for a dynamic compiler (SC'05 reproduction)" in
  Cmd.group (Cmd.info "inltune" ~version:"1.0.0" ~doc)
    [
      list_cmd; show_cmd; run_cmd; tune_cmd; plan_cmd; experiment_cmd; export_cmd;
      run_file_cmd; knapsack_cmd; search_cmd; trace_summary_cmd; features_cmd; dataset_cmd;
      train_policy_cmd; eval_policy_cmd; gp_cmd; serve_cmd; client_cmd;
    ]

let () =
  (match Inltune_resilience.Faultinject.init_from_env () with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "inltune: bad INLTUNE_FAULTS: %s\n%!" msg;
    exit 2);
  exit (Cmd.eval main_cmd)
