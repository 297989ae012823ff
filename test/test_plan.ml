open Inltune_jir
open Inltune_opt
open Inltune_vm
open Inltune_core
module W = Inltune_workloads

(* The pass-manager layer: plan text round-trips, the default plan
   reproduces the historical pipeline bit-identically, per-item deltas sum
   exactly to the pipeline totals, the plan-genome encoding decodes safely,
   and the fitness-cache key isolates non-default plans. *)

let parse_ok s =
  match Plan.of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "expected plan to parse: %s" msg

let parse_err s =
  match Plan.of_string s with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg -> msg

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  Alcotest.(check bool) (what ^ ": error mentions '" ^ needle ^ "'") true (contains hay needle)

let bm_compress = W.Suites.find "compress"
let bm_jess = W.Suites.find "jess"

(* --- text form ----------------------------------------------------------- *)

let test_default_is_canonical_fixpoint () =
  let text = Plan.to_string Plan.default in
  let p = parse_ok text in
  Alcotest.(check bool) "parses back equal" true (Plan.equal p Plan.default);
  Alcotest.(check string) "canonical fixpoint" text (Plan.to_string p);
  Alcotest.(check bool) "is_default" true (Plan.is_default p);
  Alcotest.(check string) "digest stable" (Plan.digest Plan.default) (Plan.digest p)

let test_roundtrip_custom_plan () =
  let text =
    "# payoff passes reordered, one disabled\n\
     inltune-plan v1\n\n\
     pass guarded_devirt on\n\
     pass constprop on iters=1\n\
     pass inline on\n\
     pass dce on iters=3\n\
     pass cse off\n\
     pass cleanup on\n"
  in
  let p = parse_ok text in
  let p' = parse_ok (Plan.to_string p) in
  Alcotest.(check bool) "round-trips" true (Plan.equal p p');
  Alcotest.(check bool) "not the default" false (Plan.is_default p);
  Alcotest.(check bool) "digest differs from default" true
    (Plan.digest p <> Plan.digest Plan.default);
  (* Comments and blank lines are not part of the canonical form. *)
  Alcotest.(check bool) "canonical form drops comments" false
    (contains (Plan.to_string p) "payoff")

let test_parse_errors_are_one_line () =
  check_contains "missing header" (parse_err "pass inline on\n") "header";
  let err = parse_err "inltune-plan v1\npass warp_speed on\n" in
  check_contains "unknown pass" err "unknown pass";
  check_contains "unknown pass line number" err "line 2";
  check_contains "unknown knob"
    (parse_err "inltune-plan v1\npass inline on frobnicate=3\n")
    "unknown knob";
  let err = parse_err "inltune-plan v1\npass constprop on iters=99\n" in
  check_contains "out-of-range knob" err "out of range";
  check_contains "malformed line" (parse_err "inltune-plan v1\nnonsense here\n") "line 2";
  List.iter
    (fun e -> Alcotest.(check bool) "single line" false (contains e "\n"))
    [ parse_err "pass inline on\n"; parse_err "inltune-plan v1\npass warp_speed on\n" ]

let test_validate_rejects_bad_items () =
  let bad = { Plan.items = [| { Plan.pass = "warp_speed"; enabled = true; knobs = [] } |] } in
  (match Plan.validate bad with
  | Ok _ -> Alcotest.fail "unknown pass must not validate"
  | Error msg -> check_contains "validate unknown pass" msg "unknown pass");
  let bad_knob =
    { Plan.items = [| { Plan.pass = "cse"; enabled = true; knobs = [ ("iters", 0) ] } |] }
  in
  match Plan.validate bad_knob with
  | Ok _ -> Alcotest.fail "out-of-range knob must not validate"
  | Error msg -> check_contains "validate knob range" msg "out of range"

let test_item_knob_defaults_and_rejects () =
  let it = { Plan.pass = "cse"; enabled = true; knobs = [] } in
  Alcotest.(check int) "declared default" 1 (Plan.item_knob it "iters");
  let it2 = { it with Plan.knobs = [ ("iters", 3) ] } in
  Alcotest.(check int) "stored value wins" 3 (Plan.item_knob it2 "iters");
  Alcotest.check_raises "undeclared knob raises"
    (Invalid_argument "Plan.item_knob: cse has no knob frobnicate") (fun () ->
      ignore (Plan.item_knob it "frobnicate"))

(* --- inlining-strategy passes in the text form --------------------------- *)

(* Plan.default with one strategy switched on (with [knobs]) in place of the
   decider-driven inline item. *)
let strategy_plan ?(knobs = []) strategy =
  let items =
    Array.map
      (fun it ->
        if it.Plan.pass = strategy then { it with Plan.enabled = true; knobs }
        else if it.Plan.pass = "inline" then { it with Plan.enabled = false }
        else it)
      Plan.default.Plan.items
  in
  match Plan.validate { Plan.items } with
  | Ok p -> p
  | Error msg -> Alcotest.failf "strategy plan %s must validate: %s" strategy msg

let test_strategy_knobs_roundtrip () =
  let text =
    "inltune-plan v1\n\
     pass guarded_devirt on\n\
     pass constprop on iters=1\n\
     pass inline_leaves on leaf_size=30 rounds=3\n\
     pass inline_hot on hot_permille=200 budget=100\n\
     pass inline on\n\
     pass inline_region on budget=64 depth=2\n\
     pass dce on\n\
     pass cleanup on\n"
  in
  let p = parse_ok text in
  let p' = parse_ok (Plan.to_string p) in
  Alcotest.(check bool) "strategy knobs round-trip" true (Plan.equal p p');
  Alcotest.(check string) "canonical fixpoint" (Plan.to_string p) (Plan.to_string p');
  Alcotest.(check bool) "not the default" false (Plan.is_default p);
  List.iter
    (fun (pass, knob, v) ->
      let it =
        Array.to_list p.Plan.items |> List.find (fun it -> it.Plan.pass = pass)
      in
      Alcotest.(check int) (pass ^ "." ^ knob ^ " survives") v (Plan.item_knob it knob))
    [ ("inline_leaves", "leaf_size", 30); ("inline_leaves", "rounds", 3);
      ("inline_hot", "hot_permille", 200); ("inline_hot", "budget", 100);
      ("inline_region", "budget", 64); ("inline_region", "depth", 2) ]

let test_strategy_knob_errors_are_line_numbered () =
  let err = parse_err "inltune-plan v1\npass constprop on\npass inline_leaves on leaf=3\n" in
  check_contains "unknown strategy knob" err "unknown knob";
  check_contains "unknown strategy knob line" err "line 3";
  let err = parse_err "inltune-plan v1\npass inline_region on depth=99\n" in
  check_contains "out-of-range strategy knob" err "out of range";
  check_contains "out-of-range strategy knob line" err "line 2";
  let err =
    parse_err "inltune-plan v1\npass constprop on\npass inline on\npass inline on\n"
  in
  check_contains "duplicate inliner" err "duplicate pass";
  check_contains "duplicate inliner line" err "line 4";
  let err =
    parse_err
      "inltune-plan v1\npass inline_leaves on\npass inline on\npass inline_leaves on\n"
  in
  check_contains "duplicate strategy" err "duplicate pass";
  check_contains "duplicate strategy line" err "line 4";
  (* constprop is not an inliner: scheduling it twice stays legal (the
     default plan does). *)
  ignore (parse_ok "inltune-plan v1\npass constprop on\npass inline on\npass constprop on\n")

let test_validate_rejects_duplicate_inliner () =
  let dup =
    { Plan.items =
        [| { Plan.pass = "inline"; enabled = true; knobs = [] };
           { Plan.pass = "inline"; enabled = false; knobs = [] } |] }
  in
  match Plan.validate dup with
  | Ok _ -> Alcotest.fail "duplicate inliner must not validate"
  | Error msg ->
    check_contains "validate duplicate inliner" msg "duplicate pass";
    Alcotest.(check bool) "single line" false (contains msg "\n")

(* --- default-plan equivalence (the tentpole invariant) ------------------- *)

let each_method bm f =
  let p = W.Suites.program bm in
  Array.iter (fun m -> f p m) p.Ir.methods

let test_default_plan_bit_identical () =
  (* The plan interpreter under the parsed default plan must reproduce the
     built-in schedule exactly: same method, same stats, on every method. *)
  let parsed = parse_ok (Plan.to_string Plan.default) in
  each_method bm_jess (fun p m ->
      let legacy = Pipeline.run p (Pipeline.opt_config Heuristic.default) m in
      let planned =
        Pipeline.run p (Pipeline.make ~plan:parsed (Decider.Heuristic Heuristic.default)) m
      in
      Alcotest.(check bool) ("bit-identical: " ^ m.Ir.mname) true (legacy = planned))

let test_no_inline_plan_bit_identical () =
  let parsed = parse_ok (Plan.to_string Plan.no_inline) in
  each_method bm_compress (fun p m ->
      let legacy = Pipeline.run p Pipeline.no_inline_config m in
      let planned =
        Pipeline.run p (Pipeline.make ~plan:parsed (Decider.Heuristic Heuristic.default)) m
      in
      Alcotest.(check bool) ("bit-identical: " ^ m.Ir.mname) true (legacy = planned);
      let _, stats = planned in
      Alcotest.(check int) "nothing inlined" 0 stats.Pipeline.sites_inlined)

(* The programs the default-plan identity checks run on. *)
let identity_suite = [ bm_compress; W.Suites.find "raytrace"; W.Suites.find "db" ]

let test_measurements_bit_identical_across_scenarios () =
  (* End to end through the VM: explicit parsed default plan vs implicit
     built-in schedule, for every scenario. *)
  let parsed = parse_ok (Plan.to_string Plan.default) in
  List.iter
    (fun bm ->
      let p = W.Suites.program bm in
      List.iter
        (fun scen ->
          let implicit = Runner.measure (Machine.config scen Heuristic.default) Platform.x86 p in
          let planned =
            Runner.measure (Machine.config ~plan:parsed scen Heuristic.default) Platform.x86 p
          in
          Alcotest.(check bool)
            (Printf.sprintf "identical measurement: %s, %s" bm.W.Suites.bname
               (Machine.scenario_name scen))
            true (implicit = planned))
        [ Machine.Opt; Machine.Adapt; Machine.Ladder ])
    identity_suite

(* --- delta accounting (satellite bugfix) --------------------------------- *)

let test_deltas_sum_to_totals () =
  each_method bm_jess (fun p m ->
      let _, stats, deltas =
        Pipeline.run_detailed p (Pipeline.opt_config Heuristic.default) m
      in
      let total =
        List.fold_left (fun acc (_, d) -> Pass.add_delta acc d) Pass.zero_delta deltas
      in
      let check name got want = Alcotest.(check int) (m.Ir.mname ^ ": " ^ name) want got in
      check "sites_seen" stats.Pipeline.sites_seen total.Pass.d_sites_seen;
      check "sites_inlined" stats.Pipeline.sites_inlined total.Pass.d_sites_inlined;
      check "hot_sites_seen" stats.Pipeline.hot_sites_seen total.Pass.d_hot_sites_seen;
      check "hot_sites_inlined" stats.Pipeline.hot_sites_inlined total.Pass.d_hot_sites_inlined;
      check "sites_guarded" stats.Pipeline.sites_guarded total.Pass.d_sites_guarded;
      check "folded" stats.Pipeline.folded total.Pass.d_folded;
      check "devirtualized" stats.Pipeline.devirtualized total.Pass.d_devirtualized;
      check "cse_replaced" stats.Pipeline.cse_replaced total.Pass.d_cse_replaced;
      check "copies_propagated" stats.Pipeline.copies_propagated total.Pass.d_copies_propagated;
      check "dce_removed" stats.Pipeline.dce_removed total.Pass.d_dce_removed)

let test_deltas_follow_execution_order () =
  let p = W.Suites.program bm_compress in
  let _, _, deltas =
    Pipeline.run_detailed p (Pipeline.opt_config Heuristic.default) p.Ir.methods.(p.Ir.main)
  in
  (* No devirt oracle: guarded_devirt must be structurally absent, and the
     remaining names must follow the default plan's order. *)
  Alcotest.(check (list string)) "execution order"
    [ "constprop"; "inline"; "constprop"; "cse"; "copyprop"; "dce"; "cleanup" ]
    (List.map fst deltas)

let test_pass_spans_feed_summary () =
  (* Each executed plan item emits one opt.pass.<name> span whose transforms
     and size fields the trace summary aggregates. *)
  let path = Filename.temp_file "inltune_plan" ".jsonl" in
  Result.get_ok (Inltune_obs.Trace.to_file path);
  let p = W.Suites.program bm_compress in
  let _, stats, deltas =
    Pipeline.run_detailed p (Pipeline.opt_config Heuristic.default) p.Ir.methods.(p.Ir.main)
  in
  Inltune_obs.Trace.disable ();
  let records, malformed = Result.get_ok (Inltune_obs.Summary.load_file path) in
  Sys.remove path;
  Alcotest.(check int) "no malformed lines" 0 malformed;
  let totals = Inltune_obs.Summary.pass_totals records in
  Alcotest.(check int) "one span group per executed pass name"
    (List.length (List.sort_uniq compare (List.map fst deltas)))
    (List.length totals);
  let runs, tr, _, _, inl = List.assoc "inline" totals in
  Alcotest.(check int) "inline ran once" 1 runs;
  Alcotest.(check int) "span transforms = delta" stats.Pipeline.sites_inlined tr;
  Alcotest.(check int) "span attributes the inlined sites" stats.Pipeline.sites_inlined inl;
  (* Consecutive spans thread the same method, so the per-pass size deltas
     telescope to the whole pipeline's size change. *)
  let dsize_sum = List.fold_left (fun acc (_, (_, _, _, ds, _)) -> acc + ds) 0 totals in
  Alcotest.(check int) "size deltas telescope"
    (stats.Pipeline.size_after - stats.Pipeline.size_before)
    dsize_sum

(* --- genome encoding ----------------------------------------------------- *)

let test_genes_decode_default () =
  Alcotest.(check int) "gene arity matches ranges"
    (Array.length Plan.tunable_ranges) (Array.length Plan.default_genes);
  Alcotest.(check bool) "default genes decode to the default plan" true
    (Plan.equal (Plan.of_genes Plan.default_genes) Plan.default)

let test_genes_clamp_and_arity () =
  let wild = Array.map (fun (_, hi) -> hi + 50) Plan.tunable_ranges in
  let p = Plan.of_genes wild in
  (match Plan.validate p with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "clamped genes must decode to a valid plan: %s" msg);
  let low = Array.map (fun (lo, _) -> lo - 50) Plan.tunable_ranges in
  (match Plan.validate (Plan.of_genes low) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "clamped genes must decode to a valid plan: %s" msg);
  Alcotest.check_raises "wrong arity raises"
    (Invalid_argument "Plan.of_genes: wrong genome length") (fun () ->
      ignore (Plan.of_genes [| 1 |]))

let test_plan_genome_spec_is_composite () =
  Alcotest.(check int) "heuristic genes + plan genes"
    (5 + Array.length Plan.tunable_ranges)
    (Inltune_ga.Genome.length Params.plan_genome_spec);
  let h, p = Params.split_plan_genome Params.default_plan_genome in
  Alcotest.(check bool) "heuristic prefix decodes to default" true
    (Heuristic.equal h Heuristic.default);
  Alcotest.(check bool) "plan tail decodes to default" true (Plan.equal p Plan.default)

(* --- fitness-cache integration ------------------------------------------- *)

let test_cache_key_isolates_plans () =
  let p = W.Suites.program bm_compress in
  let key plan =
    Fitcache.key ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic:Heuristic.default
      ~inline_enabled:true ~plan ~iterations:3 p
  in
  let parsed = parse_ok (Plan.to_string Plan.default) in
  Alcotest.(check string) "parsed default shares the default key" (key Plan.default)
    (key parsed);
  let custom = parse_ok "inltune-plan v1\npass constprop on\npass inline on\npass cleanup on\n" in
  Alcotest.(check bool) "non-default plan gets its own key" true
    (key custom <> key Plan.default)

let test_signature_respects_plan () =
  let p = W.Suites.program bm_compress in
  let s plan =
    Fitcache.signature ~scenario:Machine.Opt ~heuristic:Heuristic.default ~inline_enabled:true
      ~plan p
  in
  Alcotest.(check string) "inline disabled in the plan merges everything" "off"
    (s Plan.no_inline);
  (* A plan whose pre-inline schedule differs from the historical one cannot
     use the static decision walk; the signature degrades to the raw
     heuristic parameters (no unsound merging). *)
  let odd =
    parse_ok
      "inltune-plan v1\npass constprop on iters=2\npass inline on\npass cleanup on\n"
  in
  Alcotest.(check bool) "walk-incompatible plan" false (Plan.walk_compatible odd);
  Alcotest.(check bool) "falls back to heuristic-parameter signature" true
    (String.length (s odd) > 2 && String.sub (s odd) 0 2 = "h:");
  Alcotest.(check bool) "default plan keeps the exact walk" true
    (Plan.walk_compatible Plan.default && String.sub (s Plan.default) 0 2 = "w:")

let test_signature_separates_strategies () =
  let p = W.Suites.program bm_compress in
  let key ?(heuristic = Heuristic.default) plan =
    Fitcache.key ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic ~inline_enabled:true
      ~plan ~iterations:3 p
  in
  let leaves = strategy_plan "inline_leaves" in
  let region = strategy_plan "inline_region" in
  (* Both plans lead with a strategy and the decider-driven inline item is
     off, so the signature is a constant: the key's plan tag, the digest of
     the canonical plan text, spells out every enabled strategy's knobs... *)
  Alcotest.(check string) "strategy-led signature is a constant" "n:static"
    (Fitcache.signature ~scenario:Machine.Opt ~heuristic:Heuristic.default ~inline_enabled:true
       ~plan:leaves p);
  (* ...so strategies can never share a measurement — the cross-strategy
     false-sharing bug this guards against. *)
  Alcotest.(check bool) "different strategies, different keys" true (key leaves <> key region);
  let tight = strategy_plan ~knobs:[ ("leaf_size", 1); ("rounds", 1) ] "inline_leaves" in
  Alcotest.(check bool) "different knobs, different keys" true (key leaves <> key tight);
  (* Strategies never consult the heuristic, so a strategy-led plan's key
     merges across heuristics — that merge is what makes the cache useful
     under --tune-passes. *)
  Alcotest.(check string) "key is heuristic-independent"
    (key ~heuristic:Heuristic.default leaves)
    (key ~heuristic:Heuristic.never leaves)

(* --- plan-genome tuning -------------------------------------------------- *)

let test_tune_plan_smoke () =
  Fitcache.clear ();
  let budget = { Tuner.pop = 4; gens = 2; seed = 7 } in
  let o = Tuner.tune_plan ~budget ~suite:[ bm_compress ] Tuner.Opt_tot_x86 in
  Alcotest.(check bool) "finite fitness" true (Float.is_finite o.Tuner.p_fitness);
  (match Plan.validate o.Tuner.p_plan with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "tuned plan must validate: %s" msg);
  Alcotest.(check bool) "tuned plan keeps an enabled inline item or not, but parses" true
    (Plan.equal o.Tuner.p_plan (parse_ok (Plan.to_string o.Tuner.p_plan)));
  Alcotest.(check bool) "heuristic within Table 1 ranges" true
    (Heuristic.equal o.Tuner.p_heuristic
       (Heuristic.of_array (Heuristic.clamp_to_ranges (Heuristic.to_array o.Tuner.p_heuristic))))

let test_default_plan_ga_bit_identical () =
  (* A fixed-seed heuristic GA under the explicitly parsed default plan
     follows the implicit run step for step.  The fitness cache is off, so
     both searches simulate every genome. *)
  let parsed = parse_ok (Plan.to_string Plan.default) in
  let budget = { Tuner.pop = 6; gens = 2; seed = 42 } in
  Fitcache.clear ();
  Fitcache.set_enabled false;
  let implicit, planned =
    Fun.protect
      ~finally:(fun () -> Fitcache.set_enabled true)
      (fun () ->
        let implicit = Tuner.tune ~budget ~suite:identity_suite Tuner.Opt_tot_x86 in
        (implicit, Tuner.tune ~budget ~suite:identity_suite ~plan:parsed Tuner.Opt_tot_x86))
  in
  Alcotest.(check (array int)) "best genome identical" implicit.Tuner.ga.Inltune_ga.Evolve.best
    planned.Tuner.ga.Inltune_ga.Evolve.best;
  Alcotest.(check bool) "per-generation history identical" true
    (implicit.Tuner.ga.Inltune_ga.Evolve.history = planned.Tuner.ga.Inltune_ga.Evolve.history)

let suite =
  [
    ("default plan is canonical fixpoint", `Quick, test_default_is_canonical_fixpoint);
    ("custom plan round-trips", `Quick, test_roundtrip_custom_plan);
    ("parse errors are one line", `Quick, test_parse_errors_are_one_line);
    ("validate rejects bad items", `Quick, test_validate_rejects_bad_items);
    ("item knob defaults and rejects", `Quick, test_item_knob_defaults_and_rejects);
    ("strategy knobs round-trip", `Quick, test_strategy_knobs_roundtrip);
    ("strategy knob errors are line-numbered", `Quick,
     test_strategy_knob_errors_are_line_numbered);
    ("validate rejects duplicate inliner", `Quick, test_validate_rejects_duplicate_inliner);
    ("default plan bit-identical pipeline", `Quick, test_default_plan_bit_identical);
    ("no-inline plan bit-identical", `Quick, test_no_inline_plan_bit_identical);
    ("measurements bit-identical across scenarios", `Quick,
     test_measurements_bit_identical_across_scenarios);
    ("per-pass deltas sum to totals", `Quick, test_deltas_sum_to_totals);
    ("deltas follow execution order", `Quick, test_deltas_follow_execution_order);
    ("pass spans feed the trace summary", `Quick, test_pass_spans_feed_summary);
    ("plan genes decode to default", `Quick, test_genes_decode_default);
    ("plan genes clamp and check arity", `Quick, test_genes_clamp_and_arity);
    ("plan genome spec is composite", `Quick, test_plan_genome_spec_is_composite);
    ("cache key isolates plans", `Quick, test_cache_key_isolates_plans);
    ("signature respects plan", `Quick, test_signature_respects_plan);
    ("signature separates strategies", `Quick, test_signature_separates_strategies);
    ("tune_plan smoke", `Quick, test_tune_plan_smoke);
    ("default plan GA bit-identical", `Quick, test_default_plan_ga_bit_identical);
  ]
