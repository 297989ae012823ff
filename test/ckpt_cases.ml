(* The checkpoint codec's tests, written once and run per genome codec: the
   int-array GA's (resilience suite) and the GP's tree texts (gp suite). *)

module Evolve = Inltune_ga.Evolve

type 'g fixture = {
  repr : 'g Evolve.repr;
  params : Evolve.params;      (* the echo [sample] is written and read under *)
  sample : 'g Evolve.snapshot; (* consistent: full population, every key cached *)
  golden : string;             (* a line written before the codecs merged *)
  golden_params : Evolve.params;
  cheap : 'g -> float;         (* fitness for continuing the golden line *)
}

(* Lines written before the two codecs were merged into one, committed
   verbatim.  The GA line comes from
   INLTUNE_FAULTS="eval:raise@3,eval:raise@4" tune -s adapt --pop 6 -g 2
   --domains 1 (generation 0: one quarantined genome, one retry); the GP line
   from tune --evolve-policy -s opt:tot --pop 6 -g 1 --seed 7 (generation 1). *)
let ga_golden =
  {|{"v":1,"gen":0,"rng":"-8466692820785526112","pop_size":6,"seed":42,"pop":[[4,13,5,3942,13],[16,12,3,502,44],[2,12,10,3374,40],[33,18,6,1762,153],[19,11,12,1733,389],[47,10,8,66,353]],"best":[19,11,12,1733,389],"best_fitness":0.93370727805154385,"cache":{"16,12,3,502,44":0.94887996211408476,"19,11,12,1733,389":0.93370727805154385,"2,12,10,3374,40":1000000,"33,18,6,1762,153":1.0217917817902777,"4,13,5,3942,13":1.1006764888153406,"47,10,8,66,353":0.95351809283235778},"quarantine":["2,12,10,3374,40"],"history":[{"gen":0,"best":0.93370727805154385,"mean":166667.4930956006,"evals":6}],"evaluations":6,"cache_hits":0,"failures":1,"retries":1}|}

let gp_golden =
  {|{"v":1,"gen":1,"rng":"5268110223679991593","pop_size":6,"seed":7,"pop":["(le (const 342) (sub (const 2) (const 70)))","(not (not (and (le (feat 5) (const 41)) (gt (feat 3) (feat 2)))))","(le (const 342) (sub (const 2) (const 70)))","(le (const 342) (sub (const 2) (const 70)))","(le (mul (sub (feat 5) (max (const 8) (mul (const 10) (const 341)))) (sub (min (min (const 5) (feat 9)) (sub (const 20) (const 354))) (min (sub (feat 3) (const 4)) (feat 8)))) (const 41))","(le (mul (sub (feat 10) (feat 5)) (min (const 32) (feat 2))) (sub (feat 0) (mul (const 34) (feat 8))))"],"best":"(le (const 342) (sub (const 2) (const 70)))","best_fitness":1.1513120307246989,"cache":{"2934d54f0bd9c91222cbf4e5aeedcf44":1.1513120307246989,"39870e8fca98e9804b2c84ef3ab9d4fa":1.2407870675911046,"5f6a24a2b4dbd56b0f9db80ee6682ac4":1.1531120307246989,"be6e16fd6f15b7aea82e691ff6264cda":2.3443908523384716,"d20682d853996132382cbb9a0bcd4406":2.3382766804501025,"feaa025341580ccac63febad6c52c171":1.1517120307246989},"quarantine":[],"history":[{"gen":0,"best":1.1513120307246989,"mean":1.5632651154256294,"evals":6},{"gen":1,"best":1.1513120307246989,"mean":1.1665912035357666,"evals":6}],"evaluations":6,"cache_hits":6,"failures":0,"retries":0}|}

let temp_file name = Filename.temp_file ("inltune_" ^ name) ".jsonl"

let with_file contents f =
  let path = temp_file "ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let reload ?search ?write_search fx s =
  Evolve.snapshot_of_line ~repr:fx.repr ~params:fx.params ?search
    (Evolve.snapshot_to_line ~repr:fx.repr ~params:fx.params ?search:write_search s)

let refused what needle = function
  | Ok _ -> Alcotest.failf "%s: expected a refusal" what
  | Error m ->
    Alcotest.(check bool) (Printf.sprintf "%s names %S (%s)" what needle m) true (contains m needle)

let roundtrip fx () =
  match reload fx fx.sample with
  | Error m -> Alcotest.failf "snapshot_of_line: %s" m
  | Ok s ->
    Alcotest.(check bool) "exact round trip" true (s = fx.sample);
    Alcotest.(check int64) "raw rng state" fx.sample.Evolve.s_rng s.Evolve.s_rng

let float_fidelity fx () =
  let best = fx.sample.Evolve.s_best in
  List.iter
    (fun (best, f) ->
      match reload fx { fx.sample with Evolve.s_best = best; s_best_fitness = f } with
      | Error m -> Alcotest.failf "snapshot_of_line: %s" m
      | Ok s ->
        let f' = s.Evolve.s_best_fitness in
        Alcotest.(check bool) (Printf.sprintf "%h reloads bit for bit" f) true
          (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
          || (Float.is_nan f && Float.is_nan f'));
        Alcotest.(check bool) "best genome kept" true (s.Evolve.s_best = best))
    [ (best, 0.1 +. 0.2); (best, 0.123456789012345678); (None, infinity);
      (None, neg_infinity); (best, Float.nan) ]

let load_last_valid fx () =
  let path = temp_file "ckpt_last" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let write s = Evolve.write_snapshot ~label:"t" ~repr:fx.repr ~params:fx.params path s in
      write { fx.sample with Evolve.s_gen = 3 };
      write { fx.sample with Evolve.s_gen = 7 };
      (* A kill mid-append leaves a truncated last line. *)
      let line = Evolve.snapshot_to_line ~repr:fx.repr ~params:fx.params fx.sample in
      Out_channel.with_open_gen [ Open_append ] 0o644 path (fun oc ->
          output_string oc (String.sub line 0 25));
      match Evolve.load_snapshot ~repr:fx.repr ~params:fx.params path with
      | Error m -> Alcotest.failf "load_snapshot: %s" m
      | Ok s -> Alcotest.(check int) "last complete snapshot wins" 7 s.Evolve.s_gen)

let load_missing fx () =
  match Evolve.load_snapshot ~repr:fx.repr ~params:fx.params "/nonexistent/inltune.ckpt" with
  | Ok _ -> Alcotest.fail "a missing file must not load"
  | Error _ -> ()

let garbage_line fx () =
  let load path = Evolve.load_snapshot ~repr:fx.repr ~params:fx.params path in
  with_file "not a checkpoint\n" (fun path ->
      refused "garbage only" "no complete checkpoint record" (load path));
  (* A line that parses but is not a snapshot is refused, not skipped back
     over to an older line. *)
  let line = Evolve.snapshot_to_line ~repr:fx.repr ~params:fx.params fx.sample in
  with_file (line ^ "\n{\"v\":1}\n") (fun path -> refused "parsed garbage" "missing" (load path))

let short_population fx () =
  let pop = fx.sample.Evolve.s_pop in
  let short = { fx.sample with Evolve.s_pop = Array.sub pop 0 (Array.length pop - 1) } in
  refused "population one short" "population" (reload fx short)

let key_not_cached fx () =
  let missing = fx.repr.Evolve.r_key fx.sample.Evolve.s_pop.(0) in
  let cache = List.filter (fun (k, _) -> k <> missing) fx.sample.Evolve.s_cache in
  refused "population key absent from the cache" "cache"
    (reload fx { fx.sample with Evolve.s_cache = cache })

let echo fx () =
  let ok what r =
    match r with Ok _ -> () | Error m -> Alcotest.failf "%s: unexpected refusal: %s" what m
  in
  ok "same search" (reload ~write_search:"a" ~search:"a" fx fx.sample);
  refused "other search" "search" (reload ~write_search:"a" ~search:"b" fx fx.sample);
  refused "unnamed run" "search" (reload ~write_search:"a" fx fx.sample);
  ok "line without a search" (reload ~search:"b" fx fx.sample);
  let line = Evolve.snapshot_to_line ~repr:fx.repr ~params:fx.params fx.sample in
  let other = { fx.params with Evolve.seed = fx.params.Evolve.seed + 1 } in
  refused "other seed" "seed" (Evolve.snapshot_of_line ~repr:fx.repr ~params:other line);
  let other = { fx.params with Evolve.pop_size = fx.params.Evolve.pop_size + 1 } in
  refused "other pop_size" "pop_size" (Evolve.snapshot_of_line ~repr:fx.repr ~params:other line)

(* The golden line loads, re-encodes byte for byte, and still resumes under
   a named search (it carries no search, so it loads unchecked). *)
let golden fx () =
  match Evolve.snapshot_of_line ~repr:fx.repr ~params:fx.golden_params fx.golden with
  | Error m -> Alcotest.failf "golden line refused: %s" m
  | Ok s ->
    Alcotest.(check string) "re-encodes byte for byte" fx.golden
      (Evolve.snapshot_to_line ~repr:fx.repr ~params:fx.golden_params s);
    with_file (fx.golden ^ "\n") (fun path ->
        let gen = s.Evolve.s_gen in
        let r =
          Evolve.run_repr ~resume:path ~search:"renamed" ~fitness:fx.cheap ~label:"t"
            ~repr:fx.repr
            ~params:{ fx.golden_params with Evolve.generations = gen + 1 }
            ()
        in
        Alcotest.(check int) "one more generation" (gen + 2) (List.length r.Evolve.s_progress);
        Alcotest.(check bool) "restored history kept" true
          (List.filteri (fun i _ -> i <= gen) r.Evolve.s_progress = s.Evolve.s_history))

(* A run killed mid-append leaves the checkpoint's last line cut in half.
   The run resumed from that file and checkpointing to it starts its first
   line after the fragment, so every line it writes loads and
   [load_snapshot] returns the newest. *)
let torn_tail fx () =
  match Evolve.snapshot_of_line ~repr:fx.repr ~params:fx.golden_params fx.golden with
  | Error m -> Alcotest.failf "golden line refused: %s" m
  | Ok s ->
    let gen = s.Evolve.s_gen in
    let torn = String.sub fx.golden 0 (String.length fx.golden / 2) in
    with_file (fx.golden ^ "\n" ^ torn) (fun path ->
        let params = { fx.golden_params with Evolve.generations = gen + 2 } in
        ignore
          (Evolve.run_repr ~resume:path ~checkpoint:path ~fitness:fx.cheap ~label:"t"
             ~repr:fx.repr ~params ());
        let load line = Evolve.snapshot_of_line ~repr:fx.repr ~params line in
        (match String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) with
        | golden :: fragment :: written ->
          Alcotest.(check string) "golden line kept" fx.golden golden;
          Alcotest.(check string) "fragment kept as its own line" torn fragment;
          let written = List.filter (fun l -> l <> "") written in
          Alcotest.(check int) "one line per resumed generation" 2 (List.length written);
          List.iter
            (fun l ->
              match load l with
              | Ok _ -> ()
              | Error m -> Alcotest.failf "a resumed line does not load (%s): %s" m l)
            written
        | _ -> Alcotest.fail "checkpoint lost its lines");
        match Evolve.load_snapshot ~repr:fx.repr ~params path with
        | Error m -> Alcotest.failf "load_snapshot: %s" m
        | Ok s -> Alcotest.(check int) "newest snapshot wins" (gen + 2) s.Evolve.s_gen)

let cases fx =
  [
    ("checkpoint roundtrip", `Quick, roundtrip fx);
    ("checkpoint float fidelity", `Quick, float_fidelity fx);
    ("checkpoint load last valid", `Quick, load_last_valid fx);
    ("checkpoint load missing", `Quick, load_missing fx);
    ("checkpoint garbage line", `Quick, garbage_line fx);
    ("checkpoint short population", `Quick, short_population fx);
    ("checkpoint key not cached", `Quick, key_not_cached fx);
    ("checkpoint echo", `Quick, echo fx);
    ("checkpoint golden line", `Quick, golden fx);
  ]
