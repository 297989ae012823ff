module Server = Inltune_serve.Server
module Proto = Inltune_serve.Proto
module Client = Inltune_serve.Client
module Tuner = Inltune_core.Tuner
module Faultinject = Inltune_resilience.Faultinject
module Metric = Inltune_obs.Metric
module Json = Inltune_obs.Json

(* Eight client threads hammer an in-process daemon whose admission is
   deliberately tiny, with one request faulted mid-load (both of its
   attempts).  Every request must get an explicit reply (ok, degraded,
   overloaded, quota or failed; never a hang), overload must produce
   backpressure, tenants must hit each other's cache entries, the daemon
   must heal out of degraded mode on its own and stay up, and a fixed-seed
   tune through it must return the genome and fitness the offline tuner
   computes. *)
let test_load_invariants () =
  let clients = 8 and measures_per_client = 10 in
  let status reply =
    match Json.parse reply with
    | Ok j -> Option.value ~default:"?" (Option.bind (Json.member "status" j) Json.to_string)
    | Error _ -> "?"
  in
  (* The offline reference runs before the daemon installs its tenant hook. *)
  let budget = { Tuner.pop = 6; gens = 2; seed = 123 } in
  let offline =
    Tuner.tune ~budget ~suite:[ Inltune_workloads.Suites.find "compress" ] Tuner.Opt_tot_x86
  in
  let path = Filename.temp_file "inltune_serve_test" ".sock" in
  Sys.remove path;
  let ep = Proto.Unix_path path in
  let config =
    {
      Server.default_config with
      Server.permits = 2;
      queue_cap = 2;
      quota_rate = 50.0;
      quota_burst = 10.0;
      degrade_after = 4;
      degrade_window_s = 10.0;
      cooldown_s = 1.0;
      quiet = true;
    }
  in
  let srv = Server.start ~config ep in
  Fun.protect
    ~finally:(fun () ->
      Faultinject.clear ();
      Server.stop srv)
  @@ fun () ->
  Faultinject.install
    [
      { Faultinject.site = "serve"; action = Faultinject.Raise; at = 5 };
      { Faultinject.site = "serve"; action = Faultinject.Raise; at = 6 };
    ];
  let benches = [| "compress"; "db"; "jess"; "raytrace" |] in
  let statuses = Array.make clients [] in
  let missing = Atomic.make 0 in
  let client i =
    let tenant = Printf.sprintf "t%d" (i mod 4) in
    let send line =
      match Client.rpc ~timeout_s:180.0 ep line with
      | Ok reply -> statuses.(i) <- status reply :: statuses.(i)
      | Error _ -> Atomic.incr missing
    in
    (* Every client starts a small tune at once: eight concurrent tunes
       against two permits and a queue of two force sheds. *)
    send
      (Printf.sprintf
         {|{"op":"tune","tenant":%S,"scenario":"opt:bal","pop":4,"gens":1,"seed":%d,|}
         tenant (100 + i)
      ^ {|"suite":["compress"]}|});
    (* Measure queries shared across tenants, so later clients hit cache
       entries earlier tenants paid for. *)
    for k = 0 to measures_per_client - 1 do
      send
        (Printf.sprintf {|{"op":"measure","tenant":%S,"bench":%S,"deadline_ms":60000}|} tenant
           benches.((i + k) mod Array.length benches))
    done
  in
  Array.iter Thread.join (Array.init clients (Thread.create client));
  Faultinject.clear ();
  (* The daemon must cool down out of degraded mode on its own. *)
  let rec wait_normal tries =
    if Server.degraded_mode srv && tries > 0 then begin
      Thread.delay 0.1;
      wait_normal (tries - 1)
    end
  in
  wait_normal 300;
  let healed = not (Server.degraded_mode srv) in
  let identity =
    match
      Client.rpc ~timeout_s:300.0 ep
        (Printf.sprintf
           {|{"op":"tune","tenant":"identity","scenario":"opt:tot","pop":%d,"gens":%d,"seed":%d,|}
           budget.Tuner.pop budget.Tuner.gens budget.Tuner.seed
        ^ {|"suite":["compress"]}|})
    with
    | Ok reply -> reply
    | Error m -> Alcotest.failf "identity tune got no reply: %s" m
  in
  let alive = Result.is_ok (Client.rpc ~timeout_s:10.0 ep {|{"op":"ping"}|}) in
  let all = List.concat (Array.to_list statuses) in
  let count s = List.length (List.filter (String.equal s) all) in
  Alcotest.(check int) "every request got a reply" (clients * (1 + measures_per_client))
    (List.length all);
  Alcotest.(check int) "no connection-level failure" 0 (Atomic.get missing);
  Alcotest.(check bool) "saturation produced explicit backpressure" true
    (count "overloaded" + count "quota" + count "degraded" > 0);
  Alcotest.(check bool) "tenants hit each other's cache entries" true
    (Metric.value (Metric.counter "fitness.cross_tenant_hits") > 0);
  Alcotest.(check bool) "healed from degraded mode" true healed;
  (match Json.parse identity with
  | Error m -> Alcotest.failf "identity reply not JSON (%s): %s" m identity
  | Ok j ->
    Alcotest.(check (option string)) "served tune ok" (Some "ok")
      (Option.bind (Json.member "status" j) Json.to_string);
    let genome =
      match Json.member "genome" j with
      | Some (Json.List gs) ->
        Some
          (Array.of_list
             (List.filter_map (fun g -> Option.map int_of_float (Json.to_float g)) gs))
      | _ -> None
    in
    Alcotest.(check (option (array int))) "served genome = offline genome"
      (Some (Inltune_opt.Heuristic.to_array offline.Tuner.heuristic))
      genome;
    Alcotest.(check (option (float 0.0))) "served fitness = offline fitness"
      (Some offline.Tuner.fitness)
      (Option.bind (Json.member "fitness" j) Json.to_float));
  Alcotest.(check bool) "daemon still alive" true alive

let () =
  Alcotest.run "inltune-serve-load"
    [
      ( "serve",
        [ Alcotest.test_case "load: concurrent tenants under faults" `Slow test_load_invariants ]
      );
    ]
