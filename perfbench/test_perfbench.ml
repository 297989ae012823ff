(* Replay fidelity: the traced run's per-layer numbers must describe the same
   program as the end-to-end run.  The chained passes reproduce
   [Pipeline.run], the replayed optimizing compiles reproduce the VM's code,
   the spanned simulation reproduces [Runner.measure], and the spanned-grid
   search reproduces [Tuner.tune]/[Tuner.tune_plan]. *)

open Inltune_jir
open Inltune_opt
open Inltune_vm
open Perfbench
module W = Inltune_workloads
module Fitcache = Inltune_core.Fitcache
module Tuner = Inltune_core.Tuner
module Rng = Inltune_support.Rng

let no_mismatches () =
  Alcotest.(check (list string)) "replay mismatches" [] (List.rev !Replay.mismatches);
  Replay.mismatches := []

let spec_programs = List.map W.Suites.program W.Suites.spec
let corpus = Tune.corpus_draw ~seed:7

(* Seeded plans over the whole gene space, so the strategy inliners and
   their knobs get exercised, plus the default plan. *)
let plans =
  Plan.default
  :: List.init 4 (fun seed ->
         let rng = Rng.create (seed + 1) in
         Plan.of_genes (Array.map (fun (lo, hi) -> Rng.range rng lo hi) Plan.tunable_ranges))

let pass_chain_matches_pipeline () =
  List.iter
    (fun prog ->
      List.iter
        (fun plan ->
          let config = Pipeline.make ~plan (Decider.Heuristic Heuristic.default) in
          Array.iter
            (fun m ->
              let piped, _ = Pipeline.run prog config m in
              if Replay.chain_passes ~parent:0 prog config m <> piped then
                Alcotest.failf "%s/%s: chained passes differ from Pipeline.run" prog.Ir.pname m.Ir.mname)
            prog.Ir.methods)
        plans)
    (List.map W.Suites.program corpus @ [ List.hd spec_programs ])

(* Under Opt a recompile on a fresh code space gives the VM's code bytes;
   [replay_compiles] records any difference, and any compile-count gap. *)
let opt_replay_exact () =
  List.iter
    (fun prog ->
      let cfg = Machine.config Machine.Opt Heuristic.default in
      let vm, m = Replay.simulate ~iterations:3 cfg Platform.x86 prog in
      Replay.replay_compiles cfg Platform.x86 prog vm m)
    spec_programs;
  no_mismatches ()

let simulate_matches_runner () =
  List.iter
    (fun (prog, scenario, plan) ->
      let cfg = Machine.config ~plan scenario Heuristic.default in
      let _, m = Replay.simulate ~iterations:3 cfg Platform.x86 prog in
      if m <> Runner.measure ~iterations:3 cfg Platform.x86 prog then
        Alcotest.failf "%s/%s: spanned simulation differs from Runner.measure" prog.Ir.pname
          (Machine.scenario_name scenario);
      if (m.Runner.ret, m.Runner.out_hash) <> Replay.reference Platform.x86 prog then
        Alcotest.failf "%s: flat VM disagrees with the reference interpreter" prog.Ir.pname)
    (List.concat_map
       (fun prog -> [ (prog, Machine.Opt, Plan.default); (prog, Machine.Adapt, List.nth plans 1) ])
       (List.map W.Suites.program corpus @ spec_programs))

let small (t : Tune.t) suite ~domains =
  { t with Tune.suite; budget = { Tuner.pop = 6; gens = 2; seed = 5 }; domains }

let search_matches_tuner t () =
  Tune.reset t;
  let expected = Tune.fingerprint (Tune.tune t) in
  Tune.reset t;
  let r, cells, _ = Tune.traced_search t in
  let sims = Fitcache.size () in
  Tune.detach t;
  Alcotest.(check bool) "same search" true (Tune.fingerprint r = expected);
  (* One domain cannot race on a key, so the misses are exactly the
     distinct keys the cache holds afterwards. *)
  if t.Tune.domains = 1 then
    Alcotest.(check int) "misses = distinct keys" sims
      (List.length (List.filter (fun (_, _, miss) -> miss) (Tune.classify t cells)))

let replayed_misses_check () =
  let t = small Tune.opt_spec (List.filteri (fun i _ -> i < 2) W.Suites.spec) ~domains:1 in
  Tune.reset t;
  let _, cells, _ = Tune.traced_search t in
  let n = Tune.replay_misses t ~rng:(Rng.create 3) ~sample:4 (Tune.classify t cells) in
  Alcotest.(check int) "replayed" 4 n;
  no_mismatches ()

let () =
  let opt = small Tune.opt_spec (List.filteri (fun i _ -> i < 3) W.Suites.spec) in
  let cache_file = "test-fitcache.jsonl" in
  let adapt = small (Tune.adapt_corpus ~cache_file) (List.filteri (fun i _ -> i < 2) corpus) in
  Inltune_support.Pool.set_default_domains 1;
  Alcotest.run ~and_exit:false "perfbench"
    [
      ( "replay",
        [
          Alcotest.test_case "pass chain equals Pipeline.run" `Quick pass_chain_matches_pipeline;
          Alcotest.test_case "Opt recompiles reproduce the VM's code" `Quick opt_replay_exact;
          Alcotest.test_case "spanned simulation equals Runner.measure" `Quick simulate_matches_runner;
          Alcotest.test_case "replayed misses check clean" `Quick replayed_misses_check;
        ] );
      ( "search",
        [
          Alcotest.test_case "Opt spanned grid equals Tuner.tune" `Quick
            (search_matches_tuner (opt ~domains:2));
          Alcotest.test_case "Opt one domain misses are exact" `Quick
            (search_matches_tuner (opt ~domains:1));
          Alcotest.test_case "Adapt spanned grid equals Tuner.tune_plan" `Quick
            (search_matches_tuner (adapt ~domains:2));
        ] );
    ];
  if Sys.file_exists cache_file then Sys.remove cache_file
