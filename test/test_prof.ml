module Prof = Inltune_obs.Prof
module Metric = Inltune_obs.Metric
open Inltune_core
open Inltune_vm
open Inltune_opt
module W = Inltune_workloads

(* The profiler's two contracts: span trees are deterministic in everything
   but wall time (same shape and call counts at --domains 1 and 4), and
   profiling is pure observation (measurements and GA history are
   bit-identical whether it is on or off). *)

(* Leave the profiler exactly as we found it, whatever a test does. *)
let with_prof f =
  Fun.protect
    ~finally:(fun () ->
      Prof.disable ();
      Prof.reset ())
    f

let busy () = ignore (Sys.opaque_identity (Array.init 20_000 Fun.id))

(* --- span mechanics --- *)

let test_span_nesting_and_order () =
  with_prof (fun () ->
      Prof.enable ();
      Prof.reset ();
      Prof.span "a" (fun () ->
          Prof.span "b" (fun () -> busy ());
          Prof.span "b" (fun () -> busy ()));
      Prof.span "a" (fun () -> busy ());
      let shape =
        List.map (fun n -> (n.Prof.n_path, n.Prof.n_depth, n.Prof.n_calls)) (Prof.snapshot ())
      in
      Alcotest.(check (list (triple string int int)))
        "paths in tree order, calls accumulated"
        [ ("a", 0, 2); ("a;b", 1, 2) ]
        shape)

let test_self_time_vs_cumulative () =
  with_prof (fun () ->
      Prof.enable ();
      Prof.reset ();
      Prof.span "outer" (fun () ->
          busy ();
          Prof.span "inner" (fun () -> busy ()));
      match Prof.snapshot () with
      | [ outer; inner ] ->
        Alcotest.(check string) "outer first" "outer" outer.Prof.n_path;
        Alcotest.(check bool) "self <= total" true (outer.Prof.n_self_us <= outer.Prof.n_total_us);
        Alcotest.(check (float 1e-9)) "outer self = total - inner"
          (outer.Prof.n_total_us -. inner.Prof.n_total_us)
          outer.Prof.n_self_us;
        Alcotest.(check (float 1e-9)) "leaf self = leaf total" inner.Prof.n_total_us
          inner.Prof.n_self_us;
        Alcotest.(check bool) "percentiles ordered" true
          (outer.Prof.n_p50_us <= outer.Prof.n_p90_us
          && outer.Prof.n_p90_us <= outer.Prof.n_p99_us
          && outer.Prof.n_p99_us <= outer.Prof.n_max_us)
      | nodes -> Alcotest.failf "expected 2 nodes, got %d" (List.length nodes))

let test_disabled_span_is_passthrough () =
  with_prof (fun () ->
      Prof.disable ();
      Prof.reset ();
      let r = Prof.span "ghost" ~on_time:(fun _ -> Alcotest.fail "on_time while disabled") (fun () -> 11) in
      Alcotest.(check int) "result passes through" 11 r;
      Alcotest.(check int) "nothing recorded" 0 (List.length (Prof.snapshot ())))

let test_span_exception_safe () =
  with_prof (fun () ->
      Prof.enable ();
      Prof.reset ();
      (try Prof.span "boom" (fun () -> failwith "boom") with Failure _ -> ());
      Prof.span "after" (fun () -> busy ());
      match Prof.snapshot () with
      | [ n ] ->
        (* The aborted span is dropped AND the path was restored: "after" is
           a root, not a child of "boom". *)
        Alcotest.(check string) "only the clean span" "after" n.Prof.n_path;
        Alcotest.(check int) "at root depth" 0 n.Prof.n_depth
      | nodes -> Alcotest.failf "expected 1 node, got %d" (List.length nodes))

let test_on_time_receives_duration () =
  with_prof (fun () ->
      Prof.enable ();
      Prof.reset ();
      let got = ref nan in
      Prof.span "timed" ~on_time:(fun dt -> got := dt) (fun () -> busy ());
      Alcotest.(check bool) "duration reported" true (Float.is_finite !got && !got >= 0.0))

let test_folded_matches_snapshot () =
  with_prof (fun () ->
      Prof.enable ();
      Prof.reset ();
      Prof.span "root" (fun () ->
          busy ();
          Prof.span "leaf" (fun () -> busy ()));
      let paths = List.map (fun n -> n.Prof.n_path) (Prof.snapshot ()) in
      let lines = Prof.folded (Prof.snapshot ()) in
      Alcotest.(check bool) "busy work shows up" true (List.length lines > 0);
      List.iter
        (fun line ->
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "no separator in %S" line
          | Some i ->
            let path = String.sub line 0 i in
            let us = String.sub line (i + 1) (String.length line - i - 1) in
            Alcotest.(check bool) ("known path: " ^ path) true (List.mem path paths);
            Alcotest.(check bool) ("positive self us: " ^ us) true (int_of_string us > 0))
        lines)

(* A node keeps a bounded histogram of its durations, not one sample per
   call: 10^5 spans under one path leave the live heap (almost) as it was
   after the first. *)
let test_span_memory_bounded () =
  with_prof (fun () ->
      Prof.enable ();
      Prof.reset ();
      let span () = Prof.span "bounded" (fun () -> ()) in
      span ();
      let live () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let before = live () in
      for _ = 2 to 100_000 do
        span ()
      done;
      let grown = live () - before in
      Alcotest.(check (list (pair string int))) "one node, every call" [ ("bounded", 100_000) ]
        (List.map (fun n -> (n.Prof.n_path, n.Prof.n_calls)) (Prof.snapshot ()));
      Alcotest.(check bool) (Printf.sprintf "live words grew by %d < 10^4" grown) true
        (grown < 10_000))

(* --- determinism across domain counts --- *)

let bm_compress = W.Suites.find "compress"

let budget = { Tuner.pop = 6; gens = 2; seed = 11 }

(* Counters that read clocks or depend on work-stealing order legitimately
   differ between runs; everything else must match exactly. *)
let deterministic_counters () =
  List.filter
    (fun (name, _) ->
      not (String.starts_with ~prefix:"pool." name)
      && not (String.ends_with ~suffix:"_ns" name))
    (Metric.counters_snapshot ())

let with_cold_fitcache f =
  Fitcache.set_enabled false;
  Fitcache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Fitcache.set_enabled true;
      Fitcache.clear ())
    f

let test_profile_deterministic_across_domains () =
  with_prof (fun () ->
      with_cold_fitcache (fun () ->
          (* Warm the memoized default baselines first so neither run pays
             (and profiles) them. *)
          ignore (Measure.run_default ~scenario:Machine.Opt ~platform:Platform.x86 bm_compress);
          let run domains =
            Metric.reset_all ();
            Prof.reset ();
            Prof.enable ();
            let o = Tuner.tune ~budget ~suite:[ bm_compress ] ~domains Tuner.Opt_bal_x86 in
            Prof.disable ();
            let shape =
              List.map
                (fun n -> (n.Prof.n_path, n.Prof.n_label, n.Prof.n_calls))
                (Prof.snapshot ())
            in
            (o, deterministic_counters (), shape)
          in
          let o1, counters1, shape1 = run 1 in
          let o4, counters4, shape4 = run 4 in
          Metric.reset_all ();
          Alcotest.(check bool) "same GA history" true
            (o1.Tuner.ga.Inltune_ga.Evolve.history = o4.Tuner.ga.Inltune_ga.Evolve.history);
          Alcotest.(check (float 0.0)) "same fitness" o1.Tuner.fitness o4.Tuner.fitness;
          Alcotest.(check (list (pair string int)))
            "same deterministic counters" counters1 counters4;
          Alcotest.(check (list (triple string string int)))
            "same span tree shape and call counts" shape1 shape4;
          Alcotest.(check bool) "tree is non-trivial" true
            (List.exists (fun (p, _, _) -> p = "fitness.eval") shape1)))

(* --- bit-identity: profiling must not perturb results --- *)

let test_profiling_does_not_change_results () =
  with_prof (fun () ->
      with_cold_fitcache (fun () ->
          let measure () =
            Runner.measure (Machine.config Machine.Adapt Heuristic.default) Platform.x86
              (W.Suites.program bm_compress)
          in
          let tune () = Tuner.tune ~budget ~suite:[ bm_compress ] ~domains:1 Tuner.Opt_bal_x86 in
          Prof.disable ();
          let m_off = measure () and o_off = tune () in
          Prof.enable ();
          Prof.reset ();
          let m_on = measure () and o_on = tune () in
          Prof.disable ();
          Metric.reset_all ();
          Alcotest.(check bool) "raw measurement bit-identical" true (m_off = m_on);
          Alcotest.(check bool) "GA history bit-identical" true
            (o_off.Tuner.ga.Inltune_ga.Evolve.history = o_on.Tuner.ga.Inltune_ga.Evolve.history);
          Alcotest.(check bool) "best genome bit-identical" true
            (o_off.Tuner.ga.Inltune_ga.Evolve.best = o_on.Tuner.ga.Inltune_ga.Evolve.best);
          Alcotest.(check (float 0.0)) "fitness bit-identical" o_off.Tuner.fitness o_on.Tuner.fitness;
          Alcotest.(check bool) "tuned heuristic identical" true
            (Heuristic.equal o_off.Tuner.heuristic o_on.Tuner.heuristic)))

(* The decision signature is timed in its own span under the evaluation,
   on hits and misses alike, and timing it changes no measurement. *)
let test_signature_span () =
  with_prof (fun () ->
      let measure () =
        Fitcache.clear ();
        let h = Heuristic.of_array [| 30; 12; 6; 1500; 150 |] in
        let run () = Measure.run ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic:h bm_compress in
        let miss = run () in
        let hit = run () in
        Fitcache.clear ();
        (miss.Measure.raw, hit.Measure.raw)
      in
      Prof.disable ();
      let off = measure () in
      Prof.reset ();
      Prof.enable ();
      let on = measure () in
      Prof.disable ();
      Alcotest.(check bool) "measurements bit-identical" true (off = on);
      let calls =
        List.filter_map
          (fun n ->
            if n.Prof.n_path = "fitness.eval;fitness.signature" then Some n.Prof.n_calls else None)
          (Prof.snapshot ())
      in
      Alcotest.(check (list int)) "one signature span per evaluation" [ 2 ] calls)

(* A handle binds a counter by name once; after [Metric.reset_all] it
   counts into the fresh registry, and binding one registers nothing. *)
let test_handle_counts_after_reset () =
  let h = Metric.handle "test.handle.bumps" in
  let _unused = Metric.handle "test.handle.unused" in
  let registered name = List.mem_assoc name (Metric.counters_snapshot ()) in
  Alcotest.(check bool) "binding registers nothing" false (registered "test.handle.bumps");
  Metric.bump h;
  Metric.bump_by h 4;
  Alcotest.(check int) "counts before the reset" 5 (Metric.value (Metric.counter "test.handle.bumps"));
  Metric.reset_all ();
  Alcotest.(check bool) "reset forgets the counter" false (registered "test.handle.bumps");
  Metric.bump h;
  Metric.bump_by h 2;
  Alcotest.(check int) "counts into the fresh registry" 3
    (Metric.value (Metric.counter "test.handle.bumps"));
  Alcotest.(check bool) "an unused handle stays unregistered" false
    (registered "test.handle.unused")

let suite =
  [
    Alcotest.test_case "metric handle counts after reset_all" `Quick
      test_handle_counts_after_reset;
    Alcotest.test_case "span nesting and tree order" `Quick test_span_nesting_and_order;
    Alcotest.test_case "self vs cumulative time" `Quick test_self_time_vs_cumulative;
    Alcotest.test_case "disabled span is passthrough" `Quick test_disabled_span_is_passthrough;
    Alcotest.test_case "span is exception-safe" `Quick test_span_exception_safe;
    Alcotest.test_case "on_time side channel" `Quick test_on_time_receives_duration;
    Alcotest.test_case "folded output matches snapshot" `Quick test_folded_matches_snapshot;
    Alcotest.test_case "span memory bounded" `Quick test_span_memory_bounded;
    Alcotest.test_case "profile deterministic across domains" `Slow
      test_profile_deterministic_across_domains;
    Alcotest.test_case "profiling does not change results" `Slow
      test_profiling_does_not_change_results;
    Alcotest.test_case "signature has its own span" `Quick test_signature_span;
  ]
