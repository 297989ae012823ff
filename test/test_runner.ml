open Inltune_vm
open Inltune_opt
module W = Inltune_workloads
module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event
module Prof = Inltune_obs.Prof

(* [Runner.measure] executes only the first iteration under Opt on the flat
   interpreter and derives the rest from the I-cache's first-fill record.
   These tests hold the derivation to the executed truth: the fill record
   against replayed traces, the whole record against a loop that executes
   every iteration, the scope (Adapt, Ladder and the reference interpreter
   still execute everything), and the observability of derived
   iterations. *)

let metric name = Inltune_obs.Metric.value (Inltune_obs.Metric.counter name)
let derived () = metric "vm.iterations_derived"

let with_interpreter ~reference f =
  let prev = Machine.reference_enabled () in
  Machine.set_reference reference;
  Fun.protect ~finally:(fun () -> Machine.set_reference prev) f

(* --- the fill record --------------------------------------------------------- *)

(* 16 lines of 64 bytes: addresses [k * 1024 + off] share index [off / 64]. *)
let cache () = Icache.create ~bytes:1024 ~line_bytes:64

let pass c trace =
  let m0 = Icache.misses c in
  List.iter (fun a -> ignore (Icache.access c a : bool)) trace;
  Icache.misses c - m0

(* Replay: the prediction after one cold pass must equal the misses of the
   second and third passes, and the second pass must leave the tags as the
   first did. *)
let check_repeat name trace ~first_pass ~repeat =
  let c = cache () in
  Alcotest.(check int) (name ^ ": cold pass") first_pass (pass c trace);
  let predicted = Icache.repeat_misses c in
  let tags = Array.copy c.Icache.tags in
  Alcotest.(check int) (name ^ ": predicted") repeat predicted;
  Alcotest.(check int) (name ^ ": second pass") predicted (pass c trace);
  Alcotest.(check (array int)) (name ^ ": state is a fixpoint") tags c.Icache.tags;
  Alcotest.(check int) (name ^ ": third pass") predicted (pass c trace)

let test_repeat_misses_hand_built () =
  (* A B A at index 0: ends on its first line, so the repeat misses B, A. *)
  check_repeat "A B A" [ 0; 1024; 0 ] ~first_pass:3 ~repeat:2;
  (* A B: ends on B, so the repeat misses A then B again. *)
  check_repeat "A B" [ 0; 1024 ] ~first_pass:2 ~repeat:2;
  (* Each index touched once: only cold misses, nothing on the repeat. *)
  check_repeat "touched once" [ 64; 128; 448 ] ~first_pass:3 ~repeat:0;
  (* Every access after the first hits its line. *)
  check_repeat "all hit" [ 0; 4; 8; 60; 0; 32 ] ~first_pass:1 ~repeat:0;
  (* Mixed: index 0 cycles A B A C B and ends away from A; index 1 is
     touched once. *)
  check_repeat "mixed" [ 0; 64; 1024; 0; 2048; 1024 ] ~first_pass:6 ~repeat:5;
  let c = cache () in
  ignore (pass c [ 0; 1024; 0 ] : int);
  Alcotest.(check int) "first fill of index 0" 0 c.Icache.first.(0);
  Alcotest.(check bool) "untouched indices never filled" true
    (Array.for_all (fun l -> l = -1) (Array.sub c.Icache.first 1 15))

let repeat_matches_replay =
  QCheck.Test.make ~count:300 ~name:"repeat_misses matches a replayed trace"
    QCheck.(list_of_size Gen.(0 -- 60) (int_bound 8191))
    (fun trace ->
      let c = cache () in
      ignore (pass c trace : int);
      let predicted = Icache.repeat_misses c in
      pass c trace = predicted && pass c trace = predicted)

(* --- the whole record ---------------------------------------------------------- *)

(* Every iteration executed on the flat VM and assembled as [Runner.measure]
   documents it: total from the first iteration, running as the best later
   one, ret and out_hash from the last, counters accumulated over all. *)
let executed ~iterations cfg plat prog =
  let vm = Machine.create cfg plat prog in
  let its = List.init iterations (fun _ -> Machine.run_iteration vm) in
  let first = List.hd its and last = List.nth its (iterations - 1) in
  {
    Runner.total_cycles = first.Machine.it_exec_cycles + first.Machine.it_compile_cycles;
    running_cycles =
      List.fold_left (fun b it -> min b it.Machine.it_exec_cycles) max_int (List.tl its);
    first_exec_cycles = first.Machine.it_exec_cycles;
    first_compile_cycles = first.Machine.it_compile_cycles;
    opt_compiles = Machine.opt_compiles vm;
    baseline_compiles = Machine.baseline_compiles vm;
    code_bytes = Machine.code_bytes vm;
    icache_misses = Machine.icache_misses vm;
    icache_accesses = Machine.icache_accesses vm;
    steps = vm.Machine.steps;
    ret = last.Machine.ret;
    out_hash = last.Machine.it_out_hash;
  }

let programs =
  Array.of_list
    (W.Suites.spec
    @ List.map W.Suites.find [ "fop"; "ps"; "pseudojbb" ]
    @ List.filter_map
        (fun f -> W.Corpus.find_opt (Printf.sprintf "corpus_%s00" f.W.Corpus.fname))
        W.Corpus.families)

let random_genes rng ranges =
  Array.map (fun (lo, hi) -> lo + Inltune_support.Rng.int rng (hi - lo + 1)) ranges

(* A case: heuristic, plan, program, platform, I-cache switch and iteration
   count, all drawn from one seed. *)
let case_of_seed seed =
  let rng = Inltune_support.Rng.create seed in
  let h = Heuristic.of_array (random_genes rng Heuristic.ranges) in
  let plan =
    if Inltune_support.Rng.int rng 2 = 0 then Plan.default
    else Plan.of_genes (random_genes rng Plan.tunable_ranges)
  in
  let bm = programs.(Inltune_support.Rng.int rng (Array.length programs)) in
  let plat = if Inltune_support.Rng.int rng 2 = 0 then Platform.x86 else Platform.ppc in
  let icache_enabled = Inltune_support.Rng.int rng 2 = 0 in
  let iterations = 2 + Inltune_support.Rng.int rng 4 in
  (h, plan, bm, plat, icache_enabled, iterations)

let print_case seed =
  let h, plan, bm, plat, icache_enabled, iterations = case_of_seed seed in
  Printf.sprintf "seed %d: %s, plan %s, %s/%s, icache %b, %d iterations" seed
    (Heuristic.to_string h) (Plan.digest plan) bm.W.Suites.bname plat.Platform.pname
    icache_enabled iterations

let derived_matches_executed =
  QCheck.Test.make ~count:40 ~name:"measure equals executing every iteration"
    (QCheck.make ~print:print_case (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      with_interpreter ~reference:false @@ fun () ->
      let h, plan, bm, plat, icache_enabled, iterations = case_of_seed seed in
      let prog = W.Suites.program bm in
      let cfg = Machine.config ~icache_enabled ~plan Machine.Opt h in
      let d0 = derived () in
      let m = Runner.measure ~iterations cfg plat prog in
      if derived () - d0 <> iterations - 1 then
        QCheck.Test.fail_report "later iterations were executed, not derived";
      m = executed ~iterations cfg plat prog)

(* --- scope ------------------------------------------------------------------- *)

let compress = W.Suites.program (W.Suites.find "compress")

let derived_over ~reference scenario =
  with_interpreter ~reference @@ fun () ->
  let d0 = derived () in
  ignore
    (Runner.measure ~iterations:4 (Machine.config scenario Heuristic.default) Platform.x86
       compress
      : Runner.measurement);
  derived () - d0

let test_scope () =
  Alcotest.(check int) "opt on the flat interpreter derives 3 of 4" 3
    (derived_over ~reference:false Machine.Opt);
  Alcotest.(check int) "adapt executes every iteration" 0
    (derived_over ~reference:false Machine.Adapt);
  Alcotest.(check int) "ladder executes every iteration" 0
    (derived_over ~reference:false Machine.Ladder);
  Alcotest.(check int) "the reference interpreter executes every iteration" 0
    (derived_over ~reference:true Machine.Opt)

(* --- observability ------------------------------------------------------------- *)

(* Name and fields of every event named [name], timestamps dropped. *)
let events_named name events =
  Inltune_support.Vec.to_array events
  |> Array.to_list
  |> List.filter (fun e -> e.Event.name = name)
  |> List.map (fun e -> e.Event.fields)

let traced f =
  let sink, events = Inltune_obs.Sink.memory () in
  Trace.install sink;
  Fun.protect ~finally:Trace.disable (fun () -> f ());
  events

let test_derived_iterations_observed () =
  with_interpreter ~reference:false @@ fun () ->
  Fun.protect ~finally:(fun () ->
      Prof.disable ();
      Prof.reset ())
  @@ fun () ->
  let iterations = 3 in
  let cfg = Machine.config Machine.Opt Heuristic.default in
  let plat = Platform.x86 in
  let exec_events =
    traced (fun () -> ignore (executed ~iterations cfg plat compress : Runner.measurement))
  in
  Prof.enable ();
  Prof.reset ();
  let derived_events =
    traced (fun () -> ignore (Runner.measure ~iterations cfg plat compress : Runner.measurement))
  in
  let mark_derived i fields = if i = 0 then fields else fields @ [ ("derived", Event.Bool true) ] in
  Alcotest.(check bool) "vm.iteration: executed fields, plus derived on iterations 2..n" true
    (List.mapi mark_derived (events_named "vm.iteration" exec_events)
    = events_named "vm.iteration" derived_events);
  let execute_calls =
    List.fold_left
      (fun acc n -> if n.Prof.n_path = "vm.execute" then acc + n.Prof.n_calls else acc)
      0 (Prof.snapshot ())
  in
  Alcotest.(check int) "one vm.execute span, for the executed iteration" 1 execute_calls;
  Alcotest.(check int) "one vm.breakdown event" 1
    (List.length (events_named "vm.breakdown" derived_events))

let suite =
  [
    Alcotest.test_case "repeat_misses on hand-built traces" `Quick test_repeat_misses_hand_built;
    QCheck_alcotest.to_alcotest repeat_matches_replay;
    QCheck_alcotest.to_alcotest derived_matches_executed;
    Alcotest.test_case "only opt on the flat interpreter derives" `Quick test_scope;
    Alcotest.test_case "derived iterations are observed honestly" `Quick
      test_derived_iterations_observed;
  ]
