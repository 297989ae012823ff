module R = Inltune_resilience
module Faultinject = R.Faultinject
module Sandbox = R.Sandbox
module Evolve = Inltune_ga.Evolve
module Genome = Inltune_ga.Genome

(* --- Faultinject --- *)

let test_parse_ok () =
  match Faultinject.parse "eval:raise@3, eval:corrupt@7,io:hang@1" with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok specs ->
    Alcotest.(check int) "three specs" 3 (List.length specs);
    let s = List.nth specs 0 in
    Alcotest.(check string) "site" "eval" s.Faultinject.site;
    Alcotest.(check int) "at" 3 s.Faultinject.at;
    Alcotest.(check string) "action" "raise" (Faultinject.action_name s.Faultinject.action)

let test_parse_empty () =
  match Faultinject.parse "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty string should arm nothing"
  | Error m -> Alcotest.failf "empty string rejected: %s" m

let test_parse_errors () =
  List.iter
    (fun s ->
      match Faultinject.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" s
      | Error _ -> ())
    [ "bogus"; "eval:raise"; "eval:explode@3"; "eval:raise@0"; "eval:raise@x"; ":raise@1" ]

let test_fires_at_exactly_k () =
  (match Faultinject.parse "eval:raise@3" with
  | Ok specs -> Faultinject.install specs
  | Error m -> Alcotest.failf "parse: %s" m);
  Fun.protect ~finally:Faultinject.clear (fun () ->
      Alcotest.(check bool) "armed" true (Faultinject.active ());
      let hits =
        List.init 5 (fun _ -> match Faultinject.check "eval" with Some _ -> 1 | None -> 0)
      in
      Alcotest.(check (list int)) "only the 3rd call fires" [ 0; 0; 1; 0; 0 ] hits;
      Alcotest.(check int) "call count" 5 (Faultinject.calls "eval");
      Alcotest.(check int) "other sites unaffected" 0 (Faultinject.calls "io"))

let test_clear_disarms () =
  (match Faultinject.parse "eval:corrupt@1" with
  | Ok specs -> Faultinject.install specs
  | Error m -> Alcotest.failf "parse: %s" m);
  Faultinject.clear ();
  Alcotest.(check bool) "disarmed" false (Faultinject.active ());
  Alcotest.(check bool) "check is a no-op" true (Faultinject.check "eval" = None)

(* --- Sandbox --- *)

let test_sandbox_first_try () =
  match Sandbox.run ~corrupt:Sandbox.corrupt ~site:"t" (fun () -> 0.25) with
  | Ok o ->
    Alcotest.(check (float 0.0)) "value" 0.25 o.Sandbox.result;
    Alcotest.(check int) "one attempt" 1 o.Sandbox.o_attempts
  | Error f -> Alcotest.failf "unexpected failure: %s" (Sandbox.failure_to_string f)

let test_sandbox_retry_then_success () =
  let calls = ref 0 in
  let f () =
    incr calls;
    if !calls < 3 then failwith "flaky" else 0.5
  in
  match Sandbox.run ~max_retries:2 ~corrupt:Sandbox.corrupt ~site:"t" f with
  | Ok o ->
    Alcotest.(check (float 0.0)) "value" 0.5 o.Sandbox.result;
    Alcotest.(check int) "attempts" 3 o.Sandbox.o_attempts;
    Alcotest.(check int) "calls" 3 !calls
  | Error f -> Alcotest.failf "unexpected failure: %s" (Sandbox.failure_to_string f)

let test_sandbox_exhaustion () =
  let calls = ref 0 in
  let f () = incr calls; failwith "always" in
  match Sandbox.run ~max_retries:2 ~corrupt:Sandbox.corrupt ~site:"t" f with
  | Ok _ -> Alcotest.fail "should have failed"
  | Error fl ->
    Alcotest.(check int) "attempts = 1 + max_retries" 3 fl.Sandbox.f_attempts;
    Alcotest.(check int) "calls" 3 !calls;
    (* 2^0 after attempt 1, 2^1 after attempt 2 (no backoff after the last). *)
    Alcotest.(check int) "backoff units" 3 fl.Sandbox.f_backoff_units

let test_sandbox_corrupt_output () =
  let calls = ref 0 in
  let f () = incr calls; Float.nan in
  (match Sandbox.run ~max_retries:1 ~corrupt:Sandbox.corrupt ~site:"t" f with
  | Ok _ -> Alcotest.fail "NaN must not be an Ok value"
  | Error fl ->
    Alcotest.(check int) "retried once" 2 fl.Sandbox.f_attempts;
    Alcotest.(check bool) "reason mentions corrupt" true
      (String.length fl.Sandbox.f_reason >= 7
      && String.sub fl.Sandbox.f_reason 0 7 = "corrupt"));
  match Sandbox.run ~corrupt:Sandbox.corrupt ~site:"t" (fun () -> Float.infinity) with
  | Ok _ -> Alcotest.fail "infinity must not be an Ok value"
  | Error _ -> ()

let test_sandbox_classify_rejects () =
  let f () = raise Exit in
  Alcotest.check_raises "unclassified exception propagates" Exit (fun () ->
      ignore (Sandbox.run ~classify:(fun e -> e <> Exit) ~corrupt:Sandbox.corrupt ~site:"t" f))

let test_sandbox_run_generic_corrupt () =
  (* The generic engine retries arbitrary result types; [corrupt] rejects a
     bad success exactly like an exception. *)
  let calls = ref 0 in
  let f () = incr calls; if !calls = 1 then "garbage" else "fine" in
  let corrupt s = if s = "garbage" then Some "garbage result" else None in
  match Sandbox.run ~max_retries:1 ~corrupt ~site:"t" f with
  | Ok o ->
    Alcotest.(check string) "second result kept" "fine" o.Sandbox.result;
    Alcotest.(check int) "attempts" 2 o.Sandbox.o_attempts
  | Error fl -> Alcotest.failf "unexpected failure: %s" (Sandbox.failure_to_string fl)

(* The env-armed hang path: INLTUNE_FAULTS="SITE:hang@K" makes the K-th gate
   check of SITE burn its whole fuel budget (Out_of_fuel), which the sandbox
   treats as one more transient failure — retried with the deterministic
   exponential backoff schedule. *)

let arm_from_env spec =
  Unix.putenv "INLTUNE_FAULTS" spec;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "INLTUNE_FAULTS" "")
    (fun () ->
      match Faultinject.init_from_env () with
      | Ok () -> ()
      | Error m -> Alcotest.failf "init_from_env: %s" m)

let hang_gate site () =
  match Faultinject.check site with
  | Some Faultinject.Hang -> raise Inltune_vm.Machine.Out_of_fuel
  | Some Faultinject.Raise -> raise (Faultinject.Injected site)
  | Some Faultinject.Corrupt -> Float.nan
  | None -> 0.5

let test_sandbox_hang_retries_then_succeeds () =
  arm_from_env "sbx:hang@1";
  Fun.protect ~finally:Faultinject.clear (fun () ->
      match Sandbox.run ~max_retries:2 ~corrupt:Sandbox.corrupt ~site:"sbx" (hang_gate "sbx") with
      | Ok o ->
        Alcotest.(check (float 0.0)) "recovered value" 0.5 o.Sandbox.result;
        Alcotest.(check int) "hang, then success" 2 o.Sandbox.o_attempts
      | Error fl -> Alcotest.failf "unexpected failure: %s" (Sandbox.failure_to_string fl))

let test_sandbox_hang_exhaustion_deterministic_backoff () =
  (* Every attempt hangs: the failure record carries exactly the backoff the
     schedule prescribes (1 after attempt 1, 2 after attempt 2), every run. *)
  arm_from_env "sbx2:hang@1,sbx2:hang@2,sbx2:hang@3";
  Fun.protect ~finally:Faultinject.clear (fun () ->
      match Sandbox.run ~max_retries:2 ~corrupt:Sandbox.corrupt ~site:"sbx2" (hang_gate "sbx2") with
      | Ok _ -> Alcotest.fail "three hangs must exhaust two retries"
      | Error fl ->
        Alcotest.(check int) "attempts" 3 fl.Sandbox.f_attempts;
        Alcotest.(check int) "backoff 1 + 2"
          (Sandbox.backoff_units ~attempt:1 + Sandbox.backoff_units ~attempt:2)
          fl.Sandbox.f_backoff_units;
        Alcotest.(check int) "gate consumed all three faults" 3
          (Faultinject.calls "sbx2"))

let test_backoff_schedule () =
  Alcotest.(check (list int)) "exponential" [ 1; 2; 4; 8 ]
    (List.map (fun a -> Sandbox.backoff_units ~attempt:a) [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "capped" (Sandbox.backoff_units ~attempt:100)
    (Sandbox.backoff_units ~attempt:21)

(* --- Guarded evolution --- *)

let spec3 = Genome.spec [| (0, 20); (0, 20); (0, 20) |]

let small_params =
  {
    Evolve.default_params with
    Evolve.pop_size = 8;
    generations = 5;
    seed = 7;
    domains = Some 1;
  }

(* Sphere function: smooth, deterministic, minimized at (5,5,5). *)
let sphere g =
  Array.fold_left (fun acc v -> acc +. (Float.of_int ((v - 5) * (v - 5)) /. 100.0)) 0.01 g

let test_guarded_run_isolates_failures () =
  (* Genomes whose first gene is even fail every attempt; the search must
     still complete and return a finite (odd-first-gene) best. *)
  let fitness g = if g.(0) mod 2 = 0 then failwith "injected" else sphere g in
  let guard = { Evolve.default_guard with Evolve.failure_threshold = 1.1 } in
  let r = Evolve.run ~guard ~spec:spec3 ~params:small_params ~fitness () in
  Alcotest.(check bool) "failures recorded" true (r.Evolve.failures > 0);
  Alcotest.(check int) "every failure quarantined" r.Evolve.failures r.Evolve.quarantined;
  Alcotest.(check bool) "run not degraded" true (r.Evolve.stopped = None);
  Alcotest.(check bool) "best is a real evaluation" true
    (Float.is_finite r.Evolve.best_fitness && r.Evolve.best_fitness < 100.0);
  Alcotest.(check int) "best genome survived the fault" 1 (r.Evolve.best.(0) mod 2)

let test_quarantine_stops_reevaluation () =
  (* A persistently failing genotype is attempted exactly (1 + max_retries)
     times in total, however many generations revisit it. *)
  let attempts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let fitness g =
    let k = Genome.key g in
    Hashtbl.replace attempts k (1 + Option.value ~default:0 (Hashtbl.find_opt attempts k));
    if g.(0) mod 2 = 0 then failwith "injected" else sphere g
  in
  let guard =
    { Evolve.default_guard with Evolve.max_retries = 2; failure_threshold = 1.1 }
  in
  let r = Evolve.run ~guard ~spec:spec3 ~params:small_params ~fitness () in
  Alcotest.(check bool) "some genomes failed" true (r.Evolve.quarantined > 0);
  Hashtbl.iter
    (fun k n ->
      let even = int_of_string (List.hd (String.split_on_char ',' k)) mod 2 = 0 in
      if even then Alcotest.(check int) ("attempts for failing " ^ k) 3 n
      else Alcotest.(check int) ("attempts for healthy " ^ k) 1 n)
    attempts

let test_degradation_stops_search () =
  let fitness _ = failwith "dead evaluator" in
  let r = Evolve.run ~guard:Evolve.default_guard ~spec:spec3 ~params:small_params ~fitness () in
  (match r.Evolve.stopped with
  | None -> Alcotest.fail "total failure must degrade the search"
  | Some reason ->
    Alcotest.(check bool) "reason is human-readable" true
      (String.length reason > 0 && String.sub reason 0 10 = "generation"));
  Alcotest.(check bool) "stopped at generation 0" true (List.length r.Evolve.history = 1);
  Alcotest.(check (float 0.0)) "every fitness is the penalty"
    Evolve.default_guard.Evolve.penalty r.Evolve.best_fitness

let test_default_guard_quarantines () =
  (* Without a ~guard the default one applies: a raising evaluation is
     retried, then penalized and quarantined, and the search finishes. *)
  let fitness g = if g.(0) mod 5 = 0 then failwith "injected" else sphere g in
  let r = Evolve.run ~spec:spec3 ~params:small_params ~fitness () in
  Alcotest.(check bool) "failures recorded" true (r.Evolve.failures > 0);
  Alcotest.(check int) "every failure quarantined" r.Evolve.failures r.Evolve.quarantined;
  Alcotest.(check bool) "best is a real evaluation" true
    (r.Evolve.best.(0) mod 5 <> 0 && r.Evolve.best_fitness < 100.0)

let test_classify_limits_retry () =
  (* Exceptions the guard does not classify as transient are penalized
     without retry: exactly one attempt per distinct genome. *)
  let calls = ref 0 in
  let fitness _ = incr calls; raise Exit in
  let guard =
    {
      Evolve.default_guard with
      Evolve.max_retries = 5;
      failure_threshold = 1.1;
      classify = (function Exit -> false | _ -> true);
    }
  in
  let r = Evolve.run ~guard ~spec:spec3 ~params:small_params ~fitness () in
  Alcotest.(check int) "one attempt per distinct genome" r.Evolve.evaluations !calls;
  Alcotest.(check int) "all quarantined" r.Evolve.evaluations r.Evolve.quarantined

(* --- Checkpoint / resume determinism --- *)

let run_ga ?checkpoint ?resume ~gens () =
  let params = { small_params with Evolve.generations = gens } in
  Evolve.run ?checkpoint ?resume ~guard:Evolve.default_guard ~spec:spec3 ~params
    ~fitness:sphere ()

let check_same_result label (a : Evolve.result) (b : Evolve.result) =
  Alcotest.(check (array int)) (label ^ ": best genome") a.Evolve.best b.Evolve.best;
  Alcotest.(check bool)
    (label ^ ": best fitness bit-identical")
    true
    (Int64.equal
       (Int64.bits_of_float a.Evolve.best_fitness)
       (Int64.bits_of_float b.Evolve.best_fitness));
  Alcotest.(check int) (label ^ ": evaluations") a.Evolve.evaluations b.Evolve.evaluations;
  Alcotest.(check int) (label ^ ": cache hits") a.Evolve.cache_hits b.Evolve.cache_hits;
  Alcotest.(check bool) (label ^ ": history") true (a.Evolve.history = b.Evolve.history)

let test_resume_matches_uninterrupted () =
  let ckpt = Filename.temp_file "inltune_resume" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ckpt)
    (fun () ->
      let full = run_ga ~gens:6 () in
      Sys.remove ckpt;
      (* "Crash" after generation 3, then resume to the same horizon. *)
      let _interrupted = run_ga ~checkpoint:ckpt ~gens:3 () in
      let resumed = run_ga ~resume:ckpt ~gens:6 () in
      check_same_result "resume = uninterrupted" full resumed)

let test_resume_from_own_checkpoint_file () =
  (* Resuming and checkpointing into the same file mid-flight also works:
     snapshots append, and load picks the newest. *)
  let ckpt = Filename.temp_file "inltune_resume2" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ckpt)
    (fun () ->
      let full = run_ga ~gens:6 () in
      Sys.remove ckpt;
      let _ = run_ga ~checkpoint:ckpt ~gens:2 () in
      let _ = run_ga ~checkpoint:ckpt ~resume:ckpt ~gens:4 () in
      let resumed = run_ga ~checkpoint:ckpt ~resume:ckpt ~gens:6 () in
      check_same_result "chained resumes" full resumed)

let test_resume_rejects_mismatched_params () =
  let ckpt = Filename.temp_file "inltune_resume3" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ckpt)
    (fun () ->
      Sys.remove ckpt;
      let _ = run_ga ~checkpoint:ckpt ~gens:2 () in
      let params =
        { small_params with Evolve.generations = 4; seed = small_params.Evolve.seed + 1 }
      in
      let raised =
        try
          ignore
            (Evolve.run ~resume:ckpt ~guard:Evolve.default_guard ~spec:spec3 ~params
               ~fitness:sphere ());
          false
        with Evolve.Checkpoint_error _ -> true
      in
      Alcotest.(check bool) "seed mismatch rejected" true raised)

let test_checkpoint_errors_precede_evaluation () =
  (* An unwritable checkpoint path and a failed resume are refused before
     generation 0 is evaluated, and the refused resume creates no file. *)
  let calls = ref 0 in
  let fitness g = incr calls; sphere g in
  let refused ?checkpoint ?resume () =
    match Evolve.run ?checkpoint ?resume ~spec:spec3 ~params:small_params ~fitness () with
    | _ -> false
    | exception Evolve.Checkpoint_error _ -> true
  in
  Alcotest.(check bool) "unwritable checkpoint refused" true
    (refused ~checkpoint:"/nonexistent-dir/inltune.jsonl" ());
  let missing = Filename.temp_file "inltune_missing" ".jsonl" in
  Sys.remove missing;
  Alcotest.(check bool) "missing resume refused" true
    (refused ~checkpoint:missing ~resume:missing ());
  Alcotest.(check bool) "refused resume created no file" false (Sys.file_exists missing);
  Alcotest.(check int) "nothing evaluated" 0 !calls

(* --- Checkpoint codec (int-array genomes) --- *)

let codec_params = { Evolve.default_params with Evolve.pop_size = 2; seed = 42; domains = Some 1 }

let codec_fixture =
  let spec = Inltune_core.Params.genome_spec in
  let g1 = [| 4; 13; 5; 3942; 13 |] and g2 = [| 16; 12; 3; 502; 44 |] in
  {
    Ckpt_cases.repr = Evolve.int_repr ~spec ~params:codec_params;
    params = codec_params;
    sample =
      {
        Evolve.s_gen = 7;
        s_rng = -4616189618054758400L;
        s_pop = [| g1; g2 |];
        s_best = Some g1;
        s_best_fitness = 0.5;
        s_cache = [ (Genome.key g2, 1.0e6); (Genome.key g1, 0.5) ];
        s_quarantine = [ Genome.key g2 ];
        s_history =
          [
            { Evolve.generation = 0; best_fitness = 1.0; mean_fitness = 2.0; evaluations = 2 };
            { Evolve.generation = 7; best_fitness = 0.5; mean_fitness = 0.75; evaluations = 4 };
          ];
        s_evaluations = 4;
        s_cache_hits = 9;
        s_failures = 1;
        s_retries = 2;
      };
    golden = Ckpt_cases.ga_golden;
    golden_params = { codec_params with Evolve.pop_size = 6 };
    cheap = (fun g -> Float.of_int (Array.fold_left ( + ) 0 g));
  }

let suite =
  [
    ("faultinject parse ok", `Quick, test_parse_ok);
    ("faultinject parse empty", `Quick, test_parse_empty);
    ("faultinject parse errors", `Quick, test_parse_errors);
    ("faultinject fires at exactly k", `Quick, test_fires_at_exactly_k);
    ("faultinject clear disarms", `Quick, test_clear_disarms);
    ("sandbox first try", `Quick, test_sandbox_first_try);
    ("sandbox retry then success", `Quick, test_sandbox_retry_then_success);
    ("sandbox exhaustion", `Quick, test_sandbox_exhaustion);
    ("sandbox corrupt output", `Quick, test_sandbox_corrupt_output);
    ("sandbox classify rejects", `Quick, test_sandbox_classify_rejects);
    ("sandbox backoff schedule", `Quick, test_backoff_schedule);
    ("sandbox generic run corrupt", `Quick, test_sandbox_run_generic_corrupt);
    ("sandbox hang retries then succeeds", `Quick, test_sandbox_hang_retries_then_succeeds);
    ("sandbox hang exhaustion backoff", `Quick, test_sandbox_hang_exhaustion_deterministic_backoff);
    ("guarded run isolates failures", `Quick, test_guarded_run_isolates_failures);
    ("quarantine stops re-evaluation", `Quick, test_quarantine_stops_reevaluation);
    ("default guard quarantines failures", `Quick, test_default_guard_quarantines);
    ("degradation stops search", `Quick, test_degradation_stops_search);
    ("classify limits retry", `Quick, test_classify_limits_retry);
    ("resume matches uninterrupted", `Quick, test_resume_matches_uninterrupted);
    ("resume from own checkpoint", `Quick, test_resume_from_own_checkpoint_file);
    ("resume rejects mismatched params", `Quick, test_resume_rejects_mismatched_params);
    ("checkpoint errors precede evaluation", `Quick, test_checkpoint_errors_precede_evaluation);
  ]
  @ Ckpt_cases.cases codec_fixture
