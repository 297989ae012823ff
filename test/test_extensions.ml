open Inltune_jir
open Inltune_vm
open Inltune_opt
open Inltune_core
module W = Inltune_workloads
module Ga = Inltune_ga

(* Tests for the related-work extensions: the custom (per-site) inliner
   policy, the knapsack oracle baseline, and the local-search tuners. *)

(* --- custom inliner policy --- *)

let small_program () =
  let b = Builder.create "custom" in
  let f =
    Builder.method_ b ~name:"f" ~nargs:1 (fun mb ->
        let one = Builder.const mb 1 in
        let r = Builder.add mb 0 one in
        Builder.ret mb r)
  in
  let g =
    Builder.method_ b ~name:"g" ~nargs:1 (fun mb ->
        let two = Builder.const mb 2 in
        let r = Builder.mul mb 0 two in
        Builder.ret mb r)
  in
  let main =
    Builder.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let x = Builder.const mb 5 in
        let a = Builder.call mb f [ x ] in
        let c = Builder.call mb g [ a ] in
        Builder.print mb c;
        Builder.ret mb c)
  in
  Builder.set_main b main;
  (Builder.finish b, f, g, main)

let count_calls m =
  Array.fold_left
    (fun acc blk ->
      Array.fold_left
        (fun acc i -> match i with Ir.Call _ | Ir.CallVirt _ -> acc + 1 | _ -> acc)
        acc blk.Ir.instrs)
    0 m.Ir.blocks

let test_custom_inlines_selected_site_only () =
  let p, f, _g, main = small_program () in
  let decide ~site_owner:_ ~callee ~callee_size:_ ~inline_depth:_ ~caller_size:_ =
    callee = f
  in
  let m, stats = Engine.run ~program:p ~policy:(Policy.of_custom decide) p.Ir.methods.(main) in
  Alcotest.(check int) "one site inlined" 1 stats.Engine.sites_inlined;
  Alcotest.(check int) "one call left (g)" 1 (count_calls m)

let test_custom_preserves_semantics () =
  let p, f, _, _ = small_program () in
  let reference = Runner.observe Platform.x86 p in
  let decide ~site_owner:_ ~callee ~callee_size:_ ~inline_depth ~caller_size:_ =
    callee = f && inline_depth = 1
  in
  let cfg = Machine.config ~custom_inliner:decide Machine.Opt Heuristic.never in
  let vm = Machine.create cfg Platform.x86 p in
  let it = Machine.run_iteration vm in
  Alcotest.(check int) "same result" (fst reference) it.Machine.ret

let test_pipeline_custom_config () =
  let p, _, _, main = small_program () in
  let cfg = Pipeline.custom_config (fun ~site_owner:_ ~callee:_ ~callee_size:_ ~inline_depth:_ ~caller_size:_ -> true) in
  let m, stats = Pipeline.run p cfg p.Ir.methods.(main) in
  Alcotest.(check int) "all sites inlined" 2 stats.Pipeline.sites_inlined;
  Alcotest.(check int) "no calls left" 0 (count_calls m)

(* --- knapsack --- *)

let test_knapsack_plan_respects_budget () =
  let bm = W.Suites.find "compress" in
  let p = W.Suites.program bm in
  let plan = Knapsack.build_plan ~expansion_limit:0.1 Platform.x86 p in
  Alcotest.(check bool) "budget positive" true (plan.Knapsack.budget > 0);
  Alcotest.(check bool) "spent within budget" true (plan.Knapsack.spent <= plan.Knapsack.budget);
  Alcotest.(check bool) "selected something" true (plan.Knapsack.chosen > 0);
  Alcotest.(check bool) "chosen <= candidates" true
    (plan.Knapsack.chosen <= plan.Knapsack.candidates)

let test_knapsack_zero_budget_selects_nothing () =
  let bm = W.Suites.find "compress" in
  let p = W.Suites.program bm in
  let plan = Knapsack.build_plan ~expansion_limit:0.0 Platform.x86 p in
  Alcotest.(check int) "nothing chosen" 0 plan.Knapsack.chosen

let test_knapsack_monotone_in_budget () =
  let bm = W.Suites.find "db" in
  let p = W.Suites.program bm in
  let small = Knapsack.build_plan ~expansion_limit:0.02 Platform.x86 p in
  let large = Knapsack.build_plan ~expansion_limit:0.20 Platform.x86 p in
  Alcotest.(check bool) "more budget, at least as many edges" true
    (large.Knapsack.chosen >= small.Knapsack.chosen)

(* The growth budget is a finite fraction >= 0; a limit too large for an
   int budget saturates instead of wrapping to 0. *)
let test_knapsack_limit_bound () =
  List.iter
    (fun l ->
      Alcotest.(check bool) (Printf.sprintf "%g rejected" l) true
        (Result.is_error (Knapsack.check_limit l));
      match Knapsack.build_plan ~expansion_limit:l Platform.x86 (W.Suites.program (W.Suites.find "compress")) with
      | _ -> Alcotest.failf "build_plan accepted %g" l
      | exception Invalid_argument _ -> ())
    [ -5.0; -1e-9; Float.nan; Float.infinity; Float.neg_infinity ];
  List.iter
    (fun l -> Alcotest.(check bool) (Printf.sprintf "%g accepted" l) true (Knapsack.check_limit l = Ok ()))
    [ 0.0; 0.1; 1e16 ];
  let p = W.Suites.program (W.Suites.find "compress") in
  let huge = Knapsack.build_plan ~expansion_limit:1e16 Platform.x86 p in
  Alcotest.(check int) "saturated budget" max_int huge.Knapsack.budget;
  Alcotest.(check int) "every edge selected" huge.Knapsack.candidates huge.Knapsack.chosen

let test_knapsack_preserves_semantics_and_improves () =
  let bm = W.Suites.find "raytrace" in
  let p = W.Suites.program bm in
  let reference = Runner.observe Platform.x86 p in
  let _, kn = Knapsack.measure Platform.x86 bm in
  Alcotest.(check int) "same checksum" (fst reference) kn.Measure.raw.Runner.ret;
  let off = Measure.run_no_inlining ~scenario:Machine.Opt ~platform:Platform.x86 bm in
  Alcotest.(check bool) "oracle beats no inlining on running time" true
    (kn.Measure.running < off.Measure.running)

let test_knapsack_decision_depth_one_only () =
  let bm = W.Suites.find "compress" in
  let p = W.Suites.program bm in
  let plan = Knapsack.build_plan Platform.x86 p in
  (* Whatever is selected, nothing is inlined past depth 1. *)
  let any_owner = p.Ir.main in
  Alcotest.(check bool) "depth 2 always refused" true
    (Array.for_all
       (fun (m : Ir.methd) ->
         not
           (Knapsack.decision plan ~site_owner:any_owner ~callee:m.Ir.mid ~callee_size:1
              ~inline_depth:2 ~caller_size:1))
       p.Ir.methods)

(* --- local search --- *)

let spec3 = Ga.Genome.spec [| (0, 20); (0, 20); (0, 20) |]

let sphere g =
  Array.fold_left (fun acc v -> acc +. (Float.of_int ((v - 7) * (v - 7)))) 0.0 g

let test_hill_climb_converges () =
  let r = Ga.Localsearch.hill_climb ~spec:spec3 ~budget:600 ~seed:1 ~fitness:sphere () in
  Alcotest.(check bool)
    (Printf.sprintf "near optimum (%.1f)" r.Ga.Localsearch.best_fitness)
    true
    (r.Ga.Localsearch.best_fitness <= 4.0)

let test_anneal_converges () =
  let r = Ga.Localsearch.anneal ~spec:spec3 ~budget:800 ~seed:1 ~fitness:sphere () in
  Alcotest.(check bool)
    (Printf.sprintf "near optimum (%.1f)" r.Ga.Localsearch.best_fitness)
    true
    (r.Ga.Localsearch.best_fitness <= 6.0)

let test_local_search_budget_respected () =
  let count = ref 0 in
  let f g =
    incr count;
    sphere g
  in
  let _ = Ga.Localsearch.hill_climb ~spec:spec3 ~budget:100 ~seed:2 ~fitness:f () in
  Alcotest.(check bool) "hc stops at budget" true (!count <= 101);
  count := 0;
  let _ = Ga.Localsearch.anneal ~spec:spec3 ~budget:100 ~seed:2 ~fitness:f () in
  Alcotest.(check bool) "sa stops at budget" true (!count <= 101)

let test_local_search_deterministic () =
  let a = Ga.Localsearch.hill_climb ~spec:spec3 ~budget:200 ~seed:9 ~fitness:sphere () in
  let b = Ga.Localsearch.hill_climb ~spec:spec3 ~budget:200 ~seed:9 ~fitness:sphere () in
  Alcotest.(check (array int)) "same best" a.Ga.Localsearch.best b.Ga.Localsearch.best

let test_local_search_stays_in_ranges () =
  List.iter
    (fun seed ->
      let r = Ga.Localsearch.anneal ~spec:spec3 ~budget:300 ~seed ~fitness:sphere () in
      Alcotest.(check bool) "valid" true (Ga.Genome.valid spec3 r.Ga.Localsearch.best))
    [ 1; 2; 3; 4; 5 ]

let test_local_search_rejects_bad_args () =
  Alcotest.(check bool) "budget 0" true
    (try
       ignore (Ga.Localsearch.hill_climb ~spec:spec3 ~budget:0 ~seed:1 ~fitness:sphere ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "cooling 1.5" true
    (try
       ignore (Ga.Localsearch.anneal ~cooling:1.5 ~spec:spec3 ~budget:10 ~seed:1 ~fitness:sphere ());
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ("custom policy inlines selected sites only", `Quick, test_custom_inlines_selected_site_only);
    ("custom policy preserves semantics", `Quick, test_custom_preserves_semantics);
    ("pipeline custom config", `Quick, test_pipeline_custom_config);
    ("knapsack plan respects budget", `Quick, test_knapsack_plan_respects_budget);
    ("knapsack zero budget", `Quick, test_knapsack_zero_budget_selects_nothing);
    ("knapsack monotone in budget", `Quick, test_knapsack_monotone_in_budget);
    ("knapsack preserves semantics and improves", `Slow, test_knapsack_preserves_semantics_and_improves);
    ("knapsack decisions are depth-1 only", `Quick, test_knapsack_decision_depth_one_only);
    ("hill climbing converges", `Quick, test_hill_climb_converges);
    ("annealing converges", `Quick, test_anneal_converges);
    ("local search respects budget", `Quick, test_local_search_budget_respected);
    ("local search deterministic", `Quick, test_local_search_deterministic);
    ("local search stays in ranges", `Quick, test_local_search_stays_in_ranges);
    ("local search rejects bad args", `Quick, test_local_search_rejects_bad_args);
    ("knapsack limit bound", `Quick, test_knapsack_limit_bound);
  ]
