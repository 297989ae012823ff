open Inltune_jir
open Inltune_vm
open Inltune_opt
open Inltune_core
module W = Inltune_workloads

(* The compile cache's contracts.  It is a tier of the fitness cache, so
   every switch that turns the fitness cache off (or empties it) also keeps
   compiles fresh; a compile served from it is bit-identical to a fresh one,
   down to the lowered stream; and a small budget evicts least recently used
   entries without ever holding more than the budget, an evicted key simply
   recompiling to the same front. *)

let metric name = Inltune_obs.Metric.value (Inltune_obs.Metric.counter name)
let hits () = metric "vm.code_cache.hits"
let bm_compress = W.Suites.find "compress"

(* Empty caches on the flat interpreter (the reference interpreter bypasses
   the compile cache); the previous interpreter and the fitness cache's
   defaults are restored afterwards. *)
let with_clean_caches f =
  let reference = Machine.reference_enabled () in
  Machine.set_reference false;
  Fitcache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Machine.set_reference reference;
      Fitcache.set_enabled true;
      Fitcache.clear ())
    f

let measure heuristic =
  ignore
    (Measure.run ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic bm_compress
      : Measure.times)

(* Two queries with distinct decision signatures that still share keys:
   every method without call sites has the empty walk under both. *)
let hits_over f =
  let h0 = hits () in
  f ();
  hits () - h0

let default_then_never () =
  measure Heuristic.default;
  measure Heuristic.never

let test_shared_walks_hit () =
  with_clean_caches (fun () ->
      Alcotest.(check bool) "second query reuses compiles" true
        (hits_over default_then_never > 0))

let test_disabled_fitcache_compiles_fresh () =
  with_clean_caches (fun () ->
      Fitcache.set_enabled false;
      Alcotest.(check int) "no hits with the fitness cache off" 0
        (hits_over default_then_never))

let test_clear_empties_compile_cache () =
  with_clean_caches (fun () ->
      measure Heuristic.default;
      Fitcache.clear ();
      Alcotest.(check int) "cleared compiles are not reused" 0
        (hits_over (fun () -> measure Heuristic.never)))

let test_reference_interpreter_compiles_fresh () =
  with_clean_caches (fun () ->
      Machine.set_reference true;
      Alcotest.(check int) "no hits under the reference interpreter" 0
        (hits_over default_then_never))

(* --- differential property ------------------------------------------------ *)

let iterations = 3

let run_vm ?code_keys heuristic plat prog =
  let vm = Machine.create ?code_keys (Machine.config Machine.Opt heuristic) plat prog in
  for _ = 1 to iterations do
    ignore (Machine.run_iteration vm : Machine.iteration)
  done;
  vm

let keys heuristic plat prog =
  match
    Fitcache.code_keys ~scenario:Machine.Opt ~platform:plat ~heuristic ~inline_enabled:true
      ~plan:Plan.default prog
  with
  | Some k -> k
  | None -> Alcotest.fail "default plan under Opt must be the exact-walk case"

(* Field for field: code address, code bytes, spills, the lowered stream
   (opc/args/extra and its base address) and everything else the record
   holds. *)
let same_compiled (a : Compile.compiled) (b : Compile.compiled) = a = b

let random_heuristic rng =
  Heuristic.of_array
    (Array.map (fun (lo, hi) -> lo + Inltune_support.Rng.int rng (hi - lo + 1)) Heuristic.ranges)

let spec = Array.of_list W.Suites.spec

(* A case: the genome under test, three filler genomes, a SPECjvm98
   program and a platform, all drawn from one seed. *)
let case_of_seed seed =
  let rng = Inltune_support.Rng.create seed in
  let h = random_heuristic rng in
  let fillers = Heuristic.default :: List.init 2 (fun _ -> random_heuristic rng) in
  let bm = spec.(Inltune_support.Rng.int rng (Array.length spec)) in
  let plat = if Inltune_support.Rng.int rng 2 = 0 then Platform.x86 else Platform.ppc in
  (h, fillers, bm, plat)

let print_case seed =
  let h, _, bm, plat = case_of_seed seed in
  Printf.sprintf "seed %d: %s on %s/%s" seed (Heuristic.to_string h) bm.W.Suites.bname
    plat.Platform.pname

let warm_cache_matches_fresh =
  QCheck.Test.make ~count:12 ~name:"warm compile cache matches fresh compiles"
    (QCheck.make ~print:print_case (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      with_clean_caches @@ fun () ->
      let h, fillers, bm, plat = case_of_seed seed in
      let prog = W.Suites.program bm in
      let cfg = Machine.config Machine.Opt h in
      let fresh = Runner.measure ~iterations cfg plat prog in
      let fresh_vm = run_vm h plat prog in
      List.iter
        (fun g ->
          ignore
            (Runner.measure ~iterations ~code_keys:(keys g plat prog) (Machine.config Machine.Opt g)
               plat prog
              : Runner.measurement))
        fillers;
      (* Partly warm (whatever the fillers share with [h]), then fully warm. *)
      let warm = Runner.measure ~iterations ~code_keys:(keys h plat prog) cfg plat prog in
      let h0 = hits () in
      let warm_vm = run_vm ~code_keys:(keys h plat prog) h plat prog in
      let all_hit = hits () - h0 = Machine.opt_compiles warm_vm in
      let same_methods =
        Array.for_all
          (fun m ->
            match
              (Machine.compiled_method fresh_vm m.Ir.mid, Machine.compiled_method warm_vm m.Ir.mid)
            with
            | Some a, Some b -> same_compiled a b
            | None, None -> true
            | Some _, None | None, Some _ -> false)
          prog.Ir.methods
      in
      if not (fresh = warm) then QCheck.Test.fail_report "measurement differs from a fresh run";
      if not all_hit then QCheck.Test.fail_report "fully warm run recompiled";
      same_methods)

(* --- eviction ------------------------------------------------------------- *)

(* Real fronts: every method of two programs, under two heuristics. *)
let fronts plat =
  List.concat_map
    (fun (bm, h) ->
      let prog = W.Suites.program bm in
      let config = Pipeline.make (Decider.Heuristic h) in
      let compile m () = Compile.optimizing_front plat prog config m in
      Array.to_list
        (Array.map2
           (fun key m -> (key, prog, m, compile m, compile m ()))
           (keys h plat prog) prog.Ir.methods))
    [
      (bm_compress, Heuristic.default);
      (bm_compress, Heuristic.never);
      (W.Suites.find "db", Heuristic.default);
    ]

let entry_bytes key front =
  String.length key + String.length (Marshal.to_string front []) + Codecache.entry_overhead

let emitted plat prog (m : Ir.methd) front =
  Compile.optimizing_emit plat (Codespace.create ())
    ~profile:(Profile.create (Array.length prog.Ir.methods))
    ~owner:m.Ir.mid front

let test_eviction_bounded_and_sound () =
  let plat = Platform.x86 in
  let entries = fronts plat in
  let total = List.fold_left (fun acc (k, _, _, _, f) -> acc + entry_bytes k f) 0 entries in
  let budget = total / 3 in
  let cache = Codecache.create ~budget in
  let e0 = metric "vm.code_cache.evictions" in
  List.iter
    (fun (key, _, _, compile, _) ->
      ignore (Codecache.find_or_compile cache key compile : Compile.opt_front);
      Alcotest.(check bool) "within budget after insert" true (Codecache.bytes cache <= budget))
    entries;
  Alcotest.(check bool) "evicted something" true (metric "vm.code_cache.evictions" > e0);
  Alcotest.(check bool) "kept something" true (Codecache.length cache > 0);
  (* Every key again: a hit decodes the stored front, an evicted key
     recompiles; either way front and emitted code are the original's, bit
     for bit. *)
  let recompiles = ref 0 in
  List.iter
    (fun (key, prog, m, compile, front) ->
      let present = Codecache.mem cache key and recompiled = ref false in
      let got =
        Codecache.find_or_compile cache key (fun () ->
            recompiled := true;
            compile ())
      in
      if !recompiled then incr recompiles;
      Alcotest.(check bool) "recompiles exactly the absent keys" (not present) !recompiled;
      Alcotest.(check bool) "front bit-identical" true (got = front);
      Alcotest.(check bool) "emitted code bit-identical" true
        (emitted plat prog m got = emitted plat prog m front);
      Alcotest.(check bool) "within budget after lookup" true (Codecache.bytes cache <= budget))
    entries;
  Alcotest.(check bool) "evicted keys recompiled" true (!recompiles > 0)

(* Equal-sized entries make the victim order exact: with room for three, a
   lookup of the oldest protects it and the next insert evicts the second. *)
let test_eviction_is_lru () =
  let prog = W.Suites.program bm_compress in
  let front =
    Compile.optimizing_front Platform.x86 prog
      (Pipeline.make (Decider.Heuristic Heuristic.default))
      prog.Ir.methods.(prog.Ir.main)
  in
  let key i = Printf.sprintf "k%d" i in
  let cache = Codecache.create ~budget:(3 * entry_bytes (key 1) front) in
  let put i = ignore (Codecache.find_or_compile cache (key i) (fun () -> front) : Compile.opt_front) in
  put 1;
  put 2;
  put 3;
  Alcotest.(check int) "three fit" 3 (Codecache.length cache);
  put 1;
  put 4;
  Alcotest.(check (list bool)) "least recently used evicted"
    [ true; false; true; true ]
    (List.map (fun i -> Codecache.mem cache (key i)) [ 1; 2; 3; 4 ]);
  Codecache.clear cache;
  Alcotest.(check int) "clear empties" 0 (Codecache.bytes cache)

let suite =
  [
    Alcotest.test_case "shared walks hit" `Quick test_shared_walks_hit;
    Alcotest.test_case "disabled fitcache compiles fresh" `Quick
      test_disabled_fitcache_compiles_fresh;
    Alcotest.test_case "fitcache clear empties it" `Quick test_clear_empties_compile_cache;
    Alcotest.test_case "reference interpreter compiles fresh" `Quick
      test_reference_interpreter_compiles_fresh;
    QCheck_alcotest.to_alcotest warm_cache_matches_fresh;
    Alcotest.test_case "eviction bounded and sound" `Quick test_eviction_bounded_and_sound;
    Alcotest.test_case "eviction is LRU" `Quick test_eviction_is_lru;
  ]
