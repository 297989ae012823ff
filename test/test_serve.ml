module S = Inltune_serve
module Proto = S.Proto
module Bucket = S.Bucket
module Admission = S.Admission
module Replycache = S.Replycache
module Server = S.Server
module Client = S.Client
module Json = Inltune_obs.Json

(* --- Proto --- *)

let test_proto_parse_full () =
  let line =
    {|{"id":"r1","tenant":"alice","deadline_ms":250,"op":"measure",
       "bench":"db","scenario":"adapt","platform":"ppc",
       "heuristic":"CALLEE_MAX_SIZE=7","iterations":5}|}
  in
  match Proto.parse_request (String.concat "" (String.split_on_char '\n' line)) with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok r ->
    Alcotest.(check (option string)) "id" (Some "r1") r.Proto.id;
    Alcotest.(check string) "tenant" "alice" r.Proto.tenant;
    Alcotest.(check (option int)) "deadline" (Some 250) r.Proto.deadline_ms;
    (match r.Proto.op with
    | Proto.Measure { m_bench; m_scenario; m_platform; m_heuristic; m_iterations } ->
      Alcotest.(check string) "bench" "db" m_bench;
      Alcotest.(check string) "scenario" "adapt" m_scenario;
      Alcotest.(check string) "platform" "ppc" m_platform;
      Alcotest.(check string) "heuristic" "CALLEE_MAX_SIZE=7" m_heuristic;
      Alcotest.(check int) "iterations" 5 m_iterations
    | op -> Alcotest.failf "wrong op %s" (Proto.op_name op))

let test_proto_defaults () =
  match Proto.parse_request {|{"op":"measure","bench":"compress"}|} with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok r ->
    Alcotest.(check (option string)) "no id" None r.Proto.id;
    Alcotest.(check string) "anon tenant" "anon" r.Proto.tenant;
    Alcotest.(check (option int)) "no deadline" None r.Proto.deadline_ms;
    (match r.Proto.op with
    | Proto.Measure { m_scenario; m_platform; m_heuristic; m_iterations; _ } ->
      Alcotest.(check string) "scenario default" "opt" m_scenario;
      Alcotest.(check string) "platform default" "x86" m_platform;
      Alcotest.(check string) "heuristic default" "" m_heuristic;
      Alcotest.(check int) "iterations default" 3 m_iterations
    | op -> Alcotest.failf "wrong op %s" (Proto.op_name op))

let test_proto_tune_defaults () =
  match Proto.parse_request {|{"op":"tune"}|} with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok r ->
    (match r.Proto.op with
    | Proto.Tune { t_scenario; t_pop; t_gens; t_seed; t_suite } ->
      Alcotest.(check string) "scenario" "opt:tot" t_scenario;
      Alcotest.(check int) "pop" 8 t_pop;
      Alcotest.(check int) "gens" 3 t_gens;
      Alcotest.(check int) "seed" 42 t_seed;
      Alcotest.(check (list string)) "suite" [] t_suite
    | op -> Alcotest.failf "wrong op %s" (Proto.op_name op))

let test_proto_rejects_malformed () =
  List.iter
    (fun line ->
      match Proto.parse_request line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error m -> Alcotest.(check bool) "reason non-empty" true (String.length m > 0))
    [
      "";                                      (* not JSON *)
      "not json";
      "[1,2,3]";                               (* not an object *)
      {|{"tenant":"a"}|};                      (* missing op *)
      {|{"op":"explode"}|};                    (* unknown op *)
      {|{"op":"measure"}|};                    (* measure requires bench *)
      {|{"op":"measure","bench":7}|};          (* mistyped field *)
      {|{"op":"ping","deadline_ms":"soon"}|};  (* mistyped deadline *)
    ]

let test_proto_reply_round_trip () =
  let line =
    Proto.render_reply
      [ ("id", Json.Str "r1"); ("status", Json.Str "ok"); ("total_cycles", Json.Num 123.0) ]
  in
  Alcotest.(check bool) "single line" true (not (String.contains line '\n'));
  match Json.parse line with
  | Error m -> Alcotest.failf "reply is not JSON: %s" m
  | Ok j ->
    Alcotest.(check (option string)) "status" (Some "ok")
      (Option.bind (Json.member "status" j) Json.to_string);
    Alcotest.(check (option int)) "number survives" (Some 123)
      (Option.bind (Json.member "total_cycles" j) Json.to_int)

(* --- Bucket (hand-cranked clock: refill is deterministic) --- *)

let test_bucket_burst_then_deny () =
  let b = Bucket.create ~rate:1.0 ~burst:2.0 in
  Alcotest.(check bool) "first" true (Bucket.take b ~now:0.0 "t" = Ok ());
  Alcotest.(check bool) "second (burst)" true (Bucket.take b ~now:0.0 "t" = Ok ());
  (match Bucket.take b ~now:0.0 "t" with
  | Ok () -> Alcotest.fail "empty bucket must deny"
  | Error wait -> Alcotest.(check (float 1e-9)) "full token away" 1.0 wait);
  (* Half a second accumulates half a token: still denied, shorter wait. *)
  (match Bucket.take b ~now:0.5 "t" with
  | Ok () -> Alcotest.fail "half a token is not enough"
  | Error wait -> Alcotest.(check (float 1e-9)) "half a token away" 0.5 wait);
  Alcotest.(check bool) "refilled after 1s" true (Bucket.take b ~now:1.0 "t" = Ok ())

let test_bucket_tenants_independent () =
  let b = Bucket.create ~rate:1.0 ~burst:1.0 in
  Alcotest.(check bool) "a spends" true (Bucket.take b ~now:0.0 "a" = Ok ());
  Alcotest.(check bool) "a empty" true (Result.is_error (Bucket.take b ~now:0.0 "a"));
  Alcotest.(check bool) "b unaffected" true (Bucket.take b ~now:0.0 "b" = Ok ());
  Alcotest.(check int) "two tenants seen" 2 (Bucket.tenant_count b)

let test_bucket_unlimited () =
  for i = 1 to 100 do
    match Bucket.take Bucket.unlimited ~now:0.0 "t" with
    | Ok () -> ()
    | Error _ -> Alcotest.failf "unlimited bucket denied at %d" i
  done

(* --- Admission --- *)

let test_admission_shed_when_full () =
  let a = Admission.create ~permits:1 ~queue_cap:0 in
  Alcotest.(check bool) "first admitted" true (Admission.acquire a = Admission.Admitted);
  Alcotest.(check int) "in flight" 1 (Admission.in_flight a);
  (* queue_cap = 0: the instant all permits are busy, shed without blocking. *)
  Alcotest.(check bool) "second shed" true (Admission.acquire a = Admission.Overloaded);
  Admission.release a;
  Alcotest.(check bool) "readmitted after release" true
    (Admission.acquire a = Admission.Admitted)

let test_admission_expired_deadline_times_out () =
  let a = Admission.create ~permits:1 ~queue_cap:4 in
  Alcotest.(check bool) "saturate" true (Admission.acquire a = Admission.Admitted);
  let past = Inltune_support.Pool.now () -. 1.0 in
  Alcotest.(check bool) "expired deadline never queues" true
    (Admission.acquire ~deadline:past a = Admission.Timed_out)

let test_admission_queued_waiter_wakes_on_release () =
  let a = Admission.create ~permits:1 ~queue_cap:1 in
  Alcotest.(check bool) "saturate" true (Admission.acquire a = Admission.Admitted);
  let got = ref Admission.Overloaded in
  let th = Thread.create (fun () -> got := Admission.acquire a) () in
  (* Wait until the thread is actually queued, then free the permit. *)
  let rec spin n =
    if Admission.waiting a = 0 && n < 2000 then (Thread.delay 0.001; spin (n + 1))
  in
  spin 0;
  Alcotest.(check int) "one waiter" 1 (Admission.waiting a);
  Admission.release a;
  Thread.join th;
  Alcotest.(check bool) "waiter admitted" true (!got = Admission.Admitted)

let test_admission_stop_rejects_everyone () =
  let a = Admission.create ~permits:2 ~queue_cap:2 in
  Alcotest.(check bool) "admit one" true (Admission.acquire a = Admission.Admitted);
  Admission.stop a;
  Alcotest.(check bool) "post-stop acquire" true (Admission.acquire a = Admission.Stopping);
  Alcotest.(check bool) "stop is sticky" true (Admission.acquire a = Admission.Stopping)

(* --- Replycache --- *)

let test_replycache_first_store_wins () =
  let c = Replycache.create ~cap:4 in
  Alcotest.(check bool) "miss" true (Replycache.find c "t:1" = None);
  Replycache.store c "t:1" [ ("status", Json.Str "ok") ];
  Replycache.store c "t:1" [ ("status", Json.Str "late") ];
  match Replycache.find c "t:1" with
  | Some [ ("status", Json.Str "ok") ] -> ()
  | Some _ -> Alcotest.fail "second store must not overwrite"
  | None -> Alcotest.fail "stored reply lost"

let test_replycache_fifo_eviction () =
  let c = Replycache.create ~cap:2 in
  Replycache.store c "a" [ ("n", Json.Num 1.0) ];
  Replycache.store c "b" [ ("n", Json.Num 2.0) ];
  Replycache.store c "c" [ ("n", Json.Num 3.0) ];
  Alcotest.(check int) "bounded" 2 (Replycache.size c);
  Alcotest.(check bool) "oldest evicted" true (Replycache.find c "a" = None);
  Alcotest.(check bool) "newer kept" true (Replycache.find c "b" <> None);
  Alcotest.(check bool) "newest kept" true (Replycache.find c "c" <> None)

(* --- End-to-end over a Unix socket --- *)

let with_server f =
  let path = Filename.temp_file "inltune_serve_test" ".sock" in
  Sys.remove path;
  let ep = Proto.Unix_path path in
  let config = { Server.default_config with Server.quiet = true; permits = 2 } in
  let srv = Server.start ~config ep in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f ep)

let reply_field line name =
  match Json.parse line with
  | Error m -> Alcotest.failf "reply not JSON (%s): %s" m line
  | Ok j -> Option.bind (Json.member name j) Json.to_string

let rpc ep line =
  match Client.rpc ~timeout_s:60.0 ep line with
  | Ok reply -> reply
  | Error m -> Alcotest.failf "rpc failed: %s" m

let test_e2e_ping_measure_dedup () =
  with_server (fun ep ->
      let ping = rpc ep {|{"op":"ping"}|} in
      Alcotest.(check (option string)) "ping ok" (Some "ok") (reply_field ping "status");
      Alcotest.(check (option string)) "mode normal" (Some "normal")
        (reply_field ping "mode");
      (* Malformed line: a normal reply with status "error", not a hangup. *)
      let bad = rpc ep "not json" in
      Alcotest.(check (option string)) "protocol error" (Some "error")
        (reply_field bad "status");
      (* Same id twice: second reply is the first one replayed. *)
      let req =
        {|{"id":"m1","tenant":"tt","op":"measure","bench":"compress"}|}
      in
      let first = rpc ep req in
      Alcotest.(check (option string)) "measure ok" (Some "ok") (reply_field first "status");
      Alcotest.(check (option string)) "simulated" (Some "simulated")
        (reply_field first "source");
      let second = rpc ep req in
      (match Json.parse second with
      | Error m -> Alcotest.failf "dup reply not JSON: %s" m
      | Ok j ->
        Alcotest.(check (option bool)) "flagged duplicate" (Some true)
          (Option.bind (Json.member "duplicate" j) Json.to_bool);
        let cycles r =
          match Json.parse r with
          | Ok j -> Option.bind (Json.member "total_cycles" j) Json.to_float
          | Error _ -> None
        in
        Alcotest.(check bool) "replayed, not re-run" true
          (cycles first = cycles second && cycles first <> None));
      (* Stats reflects the traffic. *)
      let stats = rpc ep {|{"op":"stats"}|} in
      Alcotest.(check (option string)) "stats ok" (Some "ok") (reply_field stats "status"))

(* The daemon observes one latency per request for its whole life; the
   histogram holding them must not grow with the request count. *)
let test_e2e_latency_histogram_bounded () =
  with_server (fun ep ->
      let c = Client.connect ep in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let words () =
            Obj.reachable_words (Obj.repr (Inltune_obs.Metric.histogram "serve.latency_ms"))
          in
          let ping n =
            for _ = 1 to n do
              match Client.request c {|{"op":"ping"}|} with
              | Ok _ -> ()
              | Error m -> Alcotest.failf "ping failed: %s" m
            done
          in
          ping 1_000;
          let at_1000 = words () in
          ping 3_000;
          let grown = words () - at_1000 in
          Alcotest.(check bool)
            (Printf.sprintf "grew by %d words < 1024 from ping 1000 to 4000" grown)
            true (grown < 1_024)))

let test_e2e_stop_is_idempotent () =
  let path = Filename.temp_file "inltune_serve_test" ".sock" in
  Sys.remove path;
  let ep = Proto.Unix_path path in
  let srv = Server.start ~config:{ Server.default_config with Server.quiet = true } ep in
  let ping = rpc ep {|{"op":"ping"}|} in
  Alcotest.(check (option string)) "alive" (Some "ok") (reply_field ping "status");
  Server.stop srv;
  Server.stop srv;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path);
  (match Client.rpc ep {|{"op":"ping"}|} with
  | Ok r -> Alcotest.failf "stopped daemon answered: %s" r
  | Error _ -> ())

(* A measure with fewer than 2 iterations, or a tune whose population does
   not exceed its elites, is outside a bound the simulator enforces: it gets
   the error reply an unknown benchmark gets, before admission, so it is
   neither a failure nor a quarantine nor a pressure event — with
   degrade_after 1, a single pressure event would switch the daemon to
   degraded mode. *)
let test_e2e_out_of_bound_requests_rejected () =
  let path = Filename.temp_file "inltune_serve_test" ".sock" in
  Sys.remove path;
  let ep = Proto.Unix_path path in
  let config = { Server.default_config with Server.quiet = true; degrade_after = 1 } in
  let srv = Server.start ~config ep in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let counter name = Inltune_obs.Metric.value (Inltune_obs.Metric.counter name) in
      let failed = counter "serve.failed" and quarantined = counter "serve.genomes_quarantined" in
      let sims = counter "measure.simulations" in
      List.iter
        (fun (what, req) ->
          let reply = rpc ep req in
          Alcotest.(check (option string)) (what ^ ": error reply") (Some "error")
            (reply_field reply "status");
          Alcotest.(check (option string)) (what ^ ": mode stays normal") (Some "normal")
            (reply_field reply "mode"))
        [
          ("iterations 1", {|{"op":"measure","bench":"compress","iterations":1}|});
          ("iterations 0", {|{"op":"measure","bench":"compress","iterations":0}|});
          ("pop 2", {|{"op":"tune","scenario":"opt:tot","pop":2,"gens":1,"suite":["compress"]}|});
        ];
      Alcotest.(check int) "no failed request" failed (counter "serve.failed");
      Alcotest.(check int) "no quarantined genome" quarantined
        (counter "serve.genomes_quarantined");
      Alcotest.(check int) "no simulation" sims (counter "measure.simulations");
      Alcotest.(check bool) "not degraded" false (Server.degraded_mode srv))

(* The generation count follows the GA's own bound, as on the CLI: a
   negative [gens] gets the error reply — no failure, no quarantine, no
   pressure event, no simulation — and [gens: 0] runs generation 0 alone,
   the search an offline [Tuner.tune] with that budget runs. *)
let test_e2e_generation_bound () =
  let path = Filename.temp_file "inltune_serve_test" ".sock" in
  Sys.remove path;
  let ep = Proto.Unix_path path in
  let config = { Server.default_config with Server.quiet = true; degrade_after = 1 } in
  let srv = Server.start ~config ep in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let counter name = Inltune_obs.Metric.value (Inltune_obs.Metric.counter name) in
      let failed = counter "serve.failed" and quarantined = counter "serve.genomes_quarantined" in
      let sims = counter "measure.simulations" in
      let reply =
        rpc ep {|{"op":"tune","scenario":"opt:tot","pop":4,"gens":-1,"suite":["compress"]}|}
      in
      Alcotest.(check (option string)) "gens -1: error reply" (Some "error")
        (reply_field reply "status");
      Alcotest.(check (option string)) "gens -1: mode stays normal" (Some "normal")
        (reply_field reply "mode");
      Alcotest.(check int) "no failed request" failed (counter "serve.failed");
      Alcotest.(check int) "no quarantined genome" quarantined
        (counter "serve.genomes_quarantined");
      Alcotest.(check int) "no simulation" sims (counter "measure.simulations");
      let reply =
        rpc ep
          {|{"op":"tune","scenario":"opt:tot","pop":4,"gens":0,"seed":3,"suite":["compress"]}|}
      in
      Alcotest.(check (option string)) "gens 0: ok reply" (Some "ok") (reply_field reply "status");
      let offline =
        Inltune_core.Tuner.tune
          ~budget:{ Inltune_core.Tuner.pop = 4; gens = 0; seed = 3 }
          ~suite:[ Inltune_workloads.Suites.find "compress" ]
          Inltune_core.Tuner.Opt_tot_x86
      in
      Alcotest.(check (option string)) "gens 0: the offline search's heuristic"
        (Some (Inltune_opt.Heuristic.to_string offline.Inltune_core.Tuner.heuristic))
        (reply_field reply "heuristic");
      Alcotest.(check bool) "not degraded" false (Server.degraded_mode srv))

let suite =
  [
    ("proto parse full", `Quick, test_proto_parse_full);
    ("proto defaults", `Quick, test_proto_defaults);
    ("proto tune defaults", `Quick, test_proto_tune_defaults);
    ("proto rejects malformed", `Quick, test_proto_rejects_malformed);
    ("proto reply round trip", `Quick, test_proto_reply_round_trip);
    ("bucket burst then deny", `Quick, test_bucket_burst_then_deny);
    ("bucket tenants independent", `Quick, test_bucket_tenants_independent);
    ("bucket unlimited", `Quick, test_bucket_unlimited);
    ("admission shed when full", `Quick, test_admission_shed_when_full);
    ("admission expired deadline", `Quick, test_admission_expired_deadline_times_out);
    ("admission waiter wakes on release", `Quick, test_admission_queued_waiter_wakes_on_release);
    ("admission stop rejects everyone", `Quick, test_admission_stop_rejects_everyone);
    ("replycache first store wins", `Quick, test_replycache_first_store_wins);
    ("replycache fifo eviction", `Quick, test_replycache_fifo_eviction);
    ("e2e ping/measure/dedup", `Quick, test_e2e_ping_measure_dedup);
    ("e2e latency histogram bounded", `Quick, test_e2e_latency_histogram_bounded);
    ("e2e stop idempotent", `Quick, test_e2e_stop_is_idempotent);
    ("e2e out-of-bound requests rejected", `Quick, test_e2e_out_of_bound_requests_rejected);
    ("e2e generation bound", `Quick, test_e2e_generation_bound);
  ]
