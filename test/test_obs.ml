module Event = Inltune_obs.Event
module Json = Inltune_obs.Json
module Sink = Inltune_obs.Sink
module Metric = Inltune_obs.Metric
module Trace = Inltune_obs.Trace
module Summary = Inltune_obs.Summary
module Prof = Inltune_obs.Prof
module Vec = Inltune_support.Vec

(* --- Event serialization --- *)

let test_event_json_round_trip () =
  let ev =
    {
      Event.ts = 1.5;
      name = "unit.test";
      fields =
        [
          ("i", Event.Int (-42));
          ("f", Event.Float 2.25);
          ("s", Event.Str "quote\" slash\\ nl\n tab\t");
          ("b", Event.Bool true);
        ];
    }
  in
  match Json.parse (Event.to_json ev) with
  | Error e -> Alcotest.failf "emitted line does not parse: %s" e
  | Ok j ->
    Alcotest.(check (option string)) "ev" (Some "unit.test") Json.(member "ev" j |> Option.map (fun v -> Option.get (to_string v)));
    Alcotest.(check (option int)) "i" (Some (-42)) (Option.bind (Json.member "i" j) Json.to_int);
    Alcotest.(check (option (float 1e-9))) "f" (Some 2.25) (Option.bind (Json.member "f" j) Json.to_float);
    Alcotest.(check (option string)) "s"
      (Some "quote\" slash\\ nl\n tab\t")
      (Option.bind (Json.member "s" j) Json.to_string);
    Alcotest.(check (option bool)) "b" (Some true) (Option.bind (Json.member "b" j) Json.to_bool);
    Alcotest.(check (option (float 1e-9))) "ts" (Some 1.5) (Option.bind (Json.member "ts" j) Json.to_float)

let test_event_json_nonfinite () =
  let ev = { Event.ts = 0.0; name = "x"; fields = [ ("n", Event.Float nan) ] } in
  match Json.parse (Event.to_json ev) with
  | Error e -> Alcotest.failf "nan field broke the line: %s" e
  | Ok j -> Alcotest.(check bool) "nan is null" true (Json.member "n" j = Some Json.Null)

(* --- JSON parser --- *)

let test_json_parser_basics () =
  let ok s = match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e in
  Alcotest.(check bool) "int" true (ok "42" = Json.Num 42.0);
  Alcotest.(check bool) "negative float" true (ok "-2.5e1" = Json.Num (-25.0));
  Alcotest.(check bool) "null" true (ok "null" = Json.Null);
  Alcotest.(check bool) "list" true (ok "[1, 2]" = Json.List [ Json.Num 1.0; Json.Num 2.0 ]);
  Alcotest.(check bool) "nested obj" true
    (ok {|{"a": {"b": [true, false]}}|}
    = Json.Obj [ ("a", Json.Obj [ ("b", Json.List [ Json.Bool true; Json.Bool false ]) ]) ]);
  Alcotest.(check (option string)) "unicode escape" (Some "A\xc3\xa9")
    (Json.to_string (ok {|"Aé"|}));
  Alcotest.(check (option int)) "to_int rejects fractions" None (Json.to_int (ok "1.5"))

let test_json_parser_errors () =
  let bad s = match Json.parse s with Ok _ -> Alcotest.failf "accepted %S" s | Error _ -> () in
  bad "";
  bad "{";
  bad "{\"a\":}";
  bad "[1,]";
  bad "tru";
  bad "\"unterminated";
  bad "1 2"

(* A byte no JSON value starts with is named, with its offset; a bad number
   is still reported as one. *)
let test_json_names_unexpected_byte () =
  let err s = match Json.parse s with Ok _ -> Alcotest.failf "accepted %S" s | Error m -> m in
  Alcotest.(check string) "letter" "unexpected byte 'x' at offset 0" (err "x");
  Alcotest.(check string) "control byte" "unexpected byte \\x01 at offset 0" (err "\001");
  Alcotest.(check string) "high byte" "unexpected byte \\xff at offset 4" (err "[1, \255]");
  Alcotest.(check string) "inside an array" "unexpected byte '@' at offset 3" (err "[1,@]");
  Alcotest.(check string) "bad number" "bad number - at offset 1" (err "-")

(* --- Sinks and the Trace front end --- *)

let test_disabled_trace_emits_nothing () =
  Trace.disable ();
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  Trace.emit "ignored" ~fields:[ ("x", Event.Int 1) ];
  let r = Trace.span "ignored.span" ~post:(fun _ -> Alcotest.fail "post ran while disabled") (fun () -> 7) in
  Alcotest.(check int) "span passes result through" 7 r

let test_memory_sink_round_trip () =
  let sink, events = Sink.memory () in
  Trace.install sink;
  Trace.emit "one" ~fields:[ ("k", Event.Str "v") ];
  Trace.emit "two";
  let r = Trace.span "three" ~post:(fun r -> [ ("r", Event.Int r) ]) (fun () -> 9) in
  Alcotest.(check int) "span result" 9 r;
  Alcotest.(check bool) "enabled while installed" true (Trace.enabled ());
  Alcotest.(check int) "three events" 3 (Vec.length events);
  Alcotest.(check string) "first name" "one" (Vec.get events 0).Event.name;
  Alcotest.(check (option string)) "first field" (Some "v") (Event.str_field (Vec.get events 0) "k");
  let three = Vec.get events 2 in
  Alcotest.(check (option int)) "span post field" (Some 9) (Event.int_field three "r");
  Alcotest.(check bool) "span duration present" true (Event.find three "dur_us" <> None);
  Trace.disable ();
  Alcotest.(check bool) "disabled again" false (Trace.enabled ())

let test_jsonl_sink_file_round_trip () =
  let path = Filename.temp_file "inltune_obs" ".jsonl" in
  Result.get_ok (Trace.to_file path);
  Trace.emit "alpha" ~fields:[ ("s", Event.Str "a\"b\\c\nd") ];
  Trace.emit "beta" ~fields:[ ("n", Event.Int 3) ];
  Trace.disable ();
  let records, malformed = Result.get_ok (Summary.load_file path) in
  Sys.remove path;
  Alcotest.(check int) "no malformed lines" 0 malformed;
  (* Metric flush may append counter events; ours must be the first two. *)
  let alpha = List.nth records 0 and beta = List.nth records 1 in
  Alcotest.(check string) "first ev" "alpha" alpha.Summary.ev;
  Alcotest.(check (option string)) "escaped string survives" (Some "a\"b\\c\nd")
    (Option.bind (Json.member "s" alpha.Summary.json) Json.to_string);
  Alcotest.(check (option int)) "int survives" (Some 3)
    (Option.bind (Json.member "n" beta.Summary.json) Json.to_int)

let test_jsonl_sink_appends () =
  let path = Filename.temp_file "inltune_obs" ".jsonl" in
  Result.get_ok (Trace.to_file path);
  Trace.emit "first";
  Trace.disable ();
  Result.get_ok (Trace.to_file path);
  Trace.emit "second";
  Trace.disable ();
  let records, _ = Result.get_ok (Summary.load_file path) in
  Sys.remove path;
  let names = List.map (fun r -> r.Summary.ev) records in
  Alcotest.(check bool) "both runs present" true
    (List.mem "first" names && List.mem "second" names)

(* --- Metrics --- *)

let test_counter_across_domains () =
  Metric.reset_all ();
  let c = Metric.counter "test.ctr" in
  Metric.add c 5;
  let worker () =
    let c' = Metric.counter "test.ctr" in
    for _ = 1 to 10_000 do
      Metric.incr c'
    done
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "atomic increments" 20_005 (Metric.value c);
  Alcotest.(check (list (pair string int))) "snapshot" [ ("test.ctr", 20_005) ]
    (Metric.counters_snapshot ())

let test_histogram_aggregation () =
  Metric.reset_all ();
  let h = Metric.histogram "test.hist" in
  List.iter (Metric.observe h) [ 0.25; 1.0; 2.0; 3.0; 1000.0 ];
  let s = Metric.snapshot h in
  Alcotest.(check int) "count" 5 s.Metric.hs_count;
  Alcotest.(check (float 1e-9)) "sum" 1006.25 s.Metric.hs_sum;
  Alcotest.(check (float 1e-9)) "min" 0.25 s.Metric.hs_min;
  Alcotest.(check (float 1e-9)) "max" 1000.0 s.Metric.hs_max;
  (* Nearest-rank percentiles are exact here: every value has at most 8
     significant bits, so each is its own bin's floor. *)
  Alcotest.(check (float 1e-9)) "p50" 2.0 s.Metric.hs_p50;
  Alcotest.(check (float 1e-9)) "p90" 1000.0 s.Metric.hs_p90;
  Alcotest.(check (float 1e-9)) "p99" 1000.0 s.Metric.hs_p99

let test_histogram_empty_percentiles () =
  Metric.reset_all ();
  let s = Metric.snapshot (Metric.histogram "test.empty") in
  Alcotest.(check int) "count" 0 s.Metric.hs_count;
  Alcotest.(check bool) "percentiles are nan" true
    (Float.is_nan s.Metric.hs_p50 && Float.is_nan s.Metric.hs_p90 && Float.is_nan s.Metric.hs_p99)

(* A histogram's memory follows the spread of its values, not their
   number: a million values over nine decades (about 3,840 bins) stay far
   below one word per value. *)
let test_histogram_bounded () =
  let h = Metric.unregistered_histogram "test.bounded" in
  let rng = Random.State.make [| 42 |] in
  let lo = Float.log 1e-6 and span = Float.log 1e9 in
  for _ = 1 to 1_000_000 do
    Metric.observe h (Float.exp (lo +. Random.State.float rng span))
  done;
  let words = Obj.reachable_words (Obj.repr h) in
  Alcotest.(check int) "count" 1_000_000 (Metric.snapshot h).Metric.hs_count;
  Alcotest.(check bool) (Printf.sprintf "%d words < 64 Ki" words) true (words < 65_536)

(* Values with at most 8 significant bits are their own bin's floor. *)
let eight_bits v = Int64.logand (Int64.bits_of_float v) 0x1FFF_FFFF_FFFFL = 0L

let positive_floats =
  let open QCheck.Gen in
  let any = map (fun e -> Float.exp e) (float_range (-40.0) 40.0) in
  let short = map2 (fun m e -> Float.ldexp (Float.of_int m) e) (int_range 1 255) (int_range (-30) 30) in
  let value = oneof [ any; short ] in
  oneof [ list_size (int_range 1 300) any; list_size (int_range 1 300) short;
          list_size (int_range 1 300) value ]

(* Count, sum, min and max are exact; each percentile lies within 2^-7
   below the exact nearest-rank one, and equals it when every value has
   at most 8 significant bits. *)
let prop_histogram_accuracy =
  QCheck.Test.make ~count:500 ~name:"histogram percentiles within 2^-7 of exact"
    (QCheck.make ~print:QCheck.Print.(list float) positive_floats)
    (fun xs ->
      let h = Metric.unregistered_histogram "test.accuracy" in
      List.iter (Metric.observe h) xs;
      let s = Metric.snapshot h in
      let a = Array.of_list xs in
      let exact = Inltune_support.Stats.percentile a in
      let within p got =
        let e = exact p in
        if List.for_all eight_bits xs then got = e
        else got <= e && got >= e *. (1.0 -. Float.ldexp 1.0 (-7))
      in
      s.Metric.hs_count = List.length xs
      && s.Metric.hs_sum = List.fold_left ( +. ) 0.0 xs
      && s.Metric.hs_min = Array.fold_left Float.min a.(0) a
      && s.Metric.hs_max = Array.fold_left Float.max a.(0) a
      && within 50.0 s.Metric.hs_p50
      && within 90.0 s.Metric.hs_p90
      && within 99.0 s.Metric.hs_p99)

let test_metrics_flush_into_trace () =
  Metric.reset_all ();
  let sink, events = Sink.memory () in
  Trace.install sink;
  Metric.add (Metric.counter "flush.me") 7;
  Trace.disable ();
  let found = ref None in
  Vec.iter
    (fun e ->
      if e.Event.name = "counter" && Event.str_field e "name" = Some "flush.me" then
        found := Event.int_field e "value")
    events;
  Alcotest.(check (option int)) "counter flushed on close" (Some 7) !found;
  Metric.reset_all ()

(* --- Summary aggregation --- *)

let synthetic_lines =
  [
    {|{"ts":0.1,"ev":"inline.decision","owner":"a","callee":"b","accept":true,"reason":"always_inline"}|};
    {|{"ts":0.2,"ev":"inline.decision","owner":"a","callee":"c","accept":false,"reason":"callee_too_big"}|};
    {|{"ts":0.3,"ev":"inline.decision","owner":"b","callee":"c","accept":false,"reason":"callee_too_big"}|};
    "this is not json";
    {|{"ts":0.4,"ev":"ga.generation","gen":0,"best":1.0,"mean":1.2,"evals":16}|};
    {|{"ts":0.5,"ev":"ga.generation","gen":1,"best":0.95,"mean":1.1,"evals":30}|};
    {|{"ts":0.6,"ev":"vm.compile","tier":"opt","cycles":100,"code_bytes":64,"recompile":false}|};
    {|{"ts":0.7,"ev":"vm.compile","tier":"opt","cycles":50,"code_bytes":32,"recompile":true}|};
    {|{"ts":0.8,"ev":"counter","name":"x","value":3}|};
  ]

let test_summary_of_lines () =
  let records, malformed = Summary.of_lines synthetic_lines in
  Alcotest.(check int) "one malformed line" 1 malformed;
  Alcotest.(check int) "eight records" 8 (List.length records)

let test_summary_inline_reasons () =
  let records, _ = Summary.of_lines synthetic_lines in
  Alcotest.(check bool) "sorted by count desc" true
    (Summary.inline_reasons records
    = [ ("callee_too_big", false, 2); ("always_inline", true, 1) ])

let test_summary_ga_generations () =
  let records, _ = Summary.of_lines synthetic_lines in
  Alcotest.(check bool) "generations in order" true
    (Summary.ga_generations records = [ (0, 1.0, 1.2, 16); (1, 0.95, 1.1, 30) ])

let test_summary_compile_tiers () =
  let records, _ = Summary.of_lines synthetic_lines in
  Alcotest.(check bool) "opt tier totals" true
    (Summary.compile_tiers records = [ ("opt", (2, 1, 150, 96)) ])

let test_summary_counter_values () =
  let records, _ = Summary.of_lines synthetic_lines in
  Alcotest.(check (list (pair string int))) "counter values" [ ("x", 3) ]
    (Summary.counter_values records)

let test_summary_tables_nonempty () =
  let records, _ = Summary.of_lines synthetic_lines in
  let tables = Summary.tables records in
  Alcotest.(check bool) "has tables" true (List.length tables >= 3);
  List.iter
    (fun t -> Alcotest.(check bool) "renders" true (String.length (Inltune_support.Table.render t) > 0))
    tables

let test_parameter_of_reason () =
  Alcotest.(check string) "callee cap" "CALLEE_MAX_SIZE" (Summary.parameter_of_reason "callee_too_big");
  Alcotest.(check string) "hot cap" "HOT_CALLEE_MAX_SIZE"
    (Summary.parameter_of_reason "hot_callee_too_big")

(* --- histogram and profiler aggregation from flushed snapshots --- *)

let prof_lines =
  [
    {|{"ts":0.9,"ev":"histogram","name":"h1","count":5,"sum":1006.25,"min":0.25,"max":1000.0,"mean":201.25,"p50":2.0,"p90":1000.0,"p99":1000.0}|};
    {|{"ts":1.0,"ev":"prof.node","path":"fitness.eval","label":"fitness.eval","depth":0,"calls":4,"total_us":100.0,"self_us":40.0,"p50_us":25.0,"p90_us":30.0,"p99_us":30.0,"max_us":30.0}|};
    {|{"ts":1.1,"ev":"prof.node","path":"fitness.eval;vm.execute","label":"vm.execute","depth":1,"calls":8,"total_us":60.0,"self_us":60.0,"p50_us":7.0,"p90_us":9.0,"p99_us":9.0,"max_us":9.0}|};
    {|{"ts":1.2,"ev":"prof.node","path":"zero.self","label":"zero.self","depth":0,"calls":1,"total_us":0.2,"self_us":0.2,"p50_us":0.2,"p90_us":0.2,"p99_us":0.2,"max_us":0.2}|};
  ]

let test_summary_histogram_values () =
  let records, _ = Summary.of_lines prof_lines in
  match Summary.histogram_values records with
  | [ h ] ->
    Alcotest.(check string) "name" "h1" h.Metric.hs_name;
    Alcotest.(check int) "count" 5 h.Metric.hs_count;
    Alcotest.(check (float 1e-9)) "sum" 1006.25 h.Metric.hs_sum;
    Alcotest.(check (float 1e-9)) "min" 0.25 h.Metric.hs_min;
    Alcotest.(check (float 1e-9)) "max" 1000.0 h.Metric.hs_max;
    Alcotest.(check (float 1e-9)) "mean" 201.25 h.Metric.hs_mean;
    Alcotest.(check (float 1e-9)) "p50" 2.0 h.Metric.hs_p50;
    Alcotest.(check (float 1e-9)) "p90" 1000.0 h.Metric.hs_p90;
    Alcotest.(check (float 1e-9)) "p99" 1000.0 h.Metric.hs_p99
  | hs -> Alcotest.failf "expected one histogram, got %d" (List.length hs)

let test_summary_prof_nodes () =
  let records, _ = Summary.of_lines prof_lines in
  let nodes = Summary.prof_nodes records in
  Alcotest.(check (list string)) "paths in tree order"
    [ "fitness.eval"; "fitness.eval;vm.execute"; "zero.self" ]
    (List.map (fun n -> n.Prof.n_path) nodes);
  let n = List.nth nodes 1 in
  Alcotest.(check string) "label" "vm.execute" n.Prof.n_label;
  Alcotest.(check int) "depth" 1 n.Prof.n_depth;
  Alcotest.(check int) "calls" 8 n.Prof.n_calls;
  Alcotest.(check (float 1e-9)) "total us" 60.0 n.Prof.n_total_us;
  Alcotest.(check (float 1e-9)) "self us" 60.0 n.Prof.n_self_us

let test_summary_folded () =
  let records, _ = Summary.of_lines prof_lines in
  (* zero.self rounds to 0 µs and is dropped; the rest keep integer self µs. *)
  Alcotest.(check (list string)) "folded lines"
    [ "fitness.eval 40"; "fitness.eval;vm.execute 60" ]
    (Prof.folded (Summary.prof_nodes records))

let test_has_events () =
  let parse lines = fst (Summary.of_lines lines) in
  Alcotest.(check bool) "empty trace" false (Summary.has_events []);
  Alcotest.(check bool) "counter/histogram-only trace" false
    (Summary.has_events
       (parse
          [
            {|{"ts":1.0,"ev":"counter","name":"x","value":3}|};
            {|{"ts":1.0,"ev":"histogram","name":"h","count":1}|};
          ]));
  Alcotest.(check bool) "real event" true
    (Summary.has_events
       (parse
          [
            {|{"ts":1.0,"ev":"counter","name":"x","value":3}|};
            {|{"ts":2.0,"ev":"inline.decision","reason":"always_inline","accept":true}|};
          ]))

(* A traced run killed mid-flush leaves the trace's last line cut off.  The
   next run's sink starts its first event on a line of its own, so the
   summary counts one malformed line and reads every new event. *)
let test_jsonl_sink_torn_tail () =
  let path = Filename.temp_file "inltune_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Result.get_ok
        (Inltune_support.Textfile.write path
           "{\"ts\":1.000000,\"ev\":\"before\"}\n{\"ts\":5.034091,\"ev\":\"in");
      Result.get_ok (Trace.to_file path);
      Trace.emit "after.first";
      Trace.emit "after.second";
      Trace.disable ();
      let records, malformed = Result.get_ok (Summary.load_file path) in
      let names = List.map (fun r -> r.Summary.ev) records in
      Alcotest.(check int) "one malformed line" 1 malformed;
      List.iter
        (fun ev -> Alcotest.(check bool) (ev ^ " read") true (List.mem ev names))
        [ "before"; "after.first"; "after.second" ])

let suite =
  [
    Alcotest.test_case "event json round trip" `Quick test_event_json_round_trip;
    Alcotest.test_case "event json non-finite floats" `Quick test_event_json_nonfinite;
    Alcotest.test_case "json parser basics" `Quick test_json_parser_basics;
    Alcotest.test_case "json parser rejects garbage" `Quick test_json_parser_errors;
    Alcotest.test_case "disabled trace emits nothing" `Quick test_disabled_trace_emits_nothing;
    Alcotest.test_case "memory sink round trip" `Quick test_memory_sink_round_trip;
    Alcotest.test_case "jsonl sink file round trip" `Quick test_jsonl_sink_file_round_trip;
    Alcotest.test_case "jsonl sink appends across installs" `Quick test_jsonl_sink_appends;
    Alcotest.test_case "counters are atomic across domains" `Quick test_counter_across_domains;
    Alcotest.test_case "histogram aggregation" `Quick test_histogram_aggregation;
    Alcotest.test_case "empty histogram percentiles" `Quick test_histogram_empty_percentiles;
    Alcotest.test_case "metrics flush into trace on close" `Quick test_metrics_flush_into_trace;
    Alcotest.test_case "summary skips malformed lines" `Quick test_summary_of_lines;
    Alcotest.test_case "summary inline reasons" `Quick test_summary_inline_reasons;
    Alcotest.test_case "summary ga generations" `Quick test_summary_ga_generations;
    Alcotest.test_case "summary compile tiers" `Quick test_summary_compile_tiers;
    Alcotest.test_case "summary counter values" `Quick test_summary_counter_values;
    Alcotest.test_case "summary tables render" `Quick test_summary_tables_nonempty;
    Alcotest.test_case "reason to Table 1 parameter" `Quick test_parameter_of_reason;
    Alcotest.test_case "summary histogram snapshots" `Quick test_summary_histogram_values;
    Alcotest.test_case "summary profile nodes" `Quick test_summary_prof_nodes;
    Alcotest.test_case "summary folded stacks" `Quick test_summary_folded;
    Alcotest.test_case "has_events ignores counter snapshots" `Quick test_has_events;
    Alcotest.test_case "histogram memory bounded" `Quick test_histogram_bounded;
    QCheck_alcotest.to_alcotest prop_histogram_accuracy;
    Alcotest.test_case "json names the unexpected byte" `Quick test_json_names_unexpected_byte;
    Alcotest.test_case "jsonl sink torn tail" `Quick test_jsonl_sink_torn_tail;
  ]
