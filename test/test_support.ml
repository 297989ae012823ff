module Rng = Inltune_support.Rng
module Stats = Inltune_support.Stats
module Vec = Inltune_support.Vec
module Table = Inltune_support.Table
module Pool = Inltune_support.Pool
module Textfile = Inltune_support.Textfile

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_range_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.range r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_range_singleton () =
  let r = Rng.create 5 in
  Alcotest.(check int) "lo=hi" 9 (Rng.range r 9 9)

let test_rng_invalid () =
  let r = Rng.create 6 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.range: empty range") (fun () ->
      ignore (Rng.range r 3 2))

let test_rng_float_bounds () =
  let r = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs from parent" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_copy () =
  let a = Rng.create 10 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_chance_extremes () =
  let r = Rng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.chance r 1.0);
    Alcotest.(check bool) "p=0 always false" false (Rng.chance r 0.0)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 12 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* --- Stats --- *)

let test_mean () = check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_geomean () =
  check_float "geomean of 2,8" 4.0 (Stats.geomean [| 2.0; 8.0 |]);
  check_float "geomean of identical" 3.0 (Stats.geomean [| 3.0; 3.0; 3.0 |])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let test_geomean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: empty") (fun () ->
      ignore (Stats.geomean [||]))

let test_stddev () =
  check_float "constant array" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  check_float "spread" 2.0 (Stats.stddev [| 2.0; 6.0 |])

let test_reduction_pct () =
  check_float "17% reduction" 17.0 (Stats.reduction_pct 0.83);
  check_float "no change" 0.0 (Stats.reduction_pct 1.0)

let test_ratio () =
  check_float "ratio" 0.5 (Stats.ratio ~baseline:4.0 2.0);
  Alcotest.check_raises "zero baseline"
    (Invalid_argument "Stats.ratio: non-positive baseline") (fun () ->
      ignore (Stats.ratio ~baseline:0.0 1.0))

let test_percentile () =
  let xs = [| 30.0; 10.0; 50.0; 20.0; 40.0 |] in
  (* Nearest-rank: always an actual sample, never an interpolation. *)
  check_float "p0 = min" 10.0 (Stats.percentile xs 0.0);
  check_float "p50 = median" 30.0 (Stats.percentile xs 50.0);
  check_float "p90" 50.0 (Stats.percentile xs 90.0);
  check_float "p100 = max" 50.0 (Stats.percentile xs 100.0);
  check_float "singleton" 7.0 (Stats.percentile [| 7.0 |] 99.0);
  (* Input order must not matter, and the input must not be mutated. *)
  check_float "unsorted input" 20.0 (Stats.percentile xs 40.0);
  Alcotest.(check bool) "input untouched" true (xs = [| 30.0; 10.0; 50.0; 20.0; 40.0 |])

let test_percentile_rejects_bad_input () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile [| 1.0 |] 101.0));
  Alcotest.check_raises "nan p" (Invalid_argument "Stats.percentile: p outside [0, 100]")
    (fun () -> ignore (Stats.percentile [| 1.0 |] nan))

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Alcotest.(check int) "last" (99 * 99) (Vec.last v)

let test_vec_pop () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.(check int) "pop" 3 (Vec.pop v);
  Alcotest.(check int) "length after pop" 2 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_array [| 1 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: out of bounds") (fun () ->
      Vec.set v (-1) 0)

let test_vec_roundtrip () =
  let a = Array.init 37 (fun i -> i * 3) in
  Alcotest.(check (array int)) "roundtrip" a (Vec.to_array (Vec.of_array a))

let test_vec_append () =
  let a = Vec.of_array [| 1; 2 |] and b = Vec.of_array [| 3; 4 |] in
  Vec.append a b;
  Alcotest.(check (array int)) "append" [| 1; 2; 3; 4 |] (Vec.to_array a)

let test_vec_fold_iter () =
  let v = Vec.of_array [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "fold sum" 10 (Vec.fold ( + ) 0 v);
  let count = ref 0 in
  Vec.iteri (fun i x -> count := !count + i + x) v;
  Alcotest.(check int) "iteri" (0 + 1 + 2 + 3 + 10) !count

let test_vec_clear () =
  let v = Vec.of_array [| 1; 2 |] in
  Vec.clear v;
  Alcotest.(check bool) "empty after clear" true (Vec.is_empty v)

(* --- Table --- *)

let test_table_renders () =
  let t =
    Table.create ~title:"T" ~header:[| "a"; "b" |] ~aligns:[| Table.Left; Table.Right |]
  in
  Table.add_row t [| "x"; "1" |];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 &&
      (let rec has i = i >= 0 && (l.[i] = 'x' || has (i-1)) in has (String.length l - 1))))

let test_table_arity_checked () =
  let t = Table.create ~title:"T" ~header:[| "a" |] ~aligns:[| Table.Left |] in
  Alcotest.check_raises "bad arity" (Invalid_argument "Table.add_row: wrong arity") (fun () ->
      Table.add_row t [| "x"; "y" |])

let test_table_bar_midpoint () =
  let b = Table.bar ~width:40 1.0 in
  Alcotest.(check int) "bar width" 40 (String.length b);
  Alcotest.(check char) "baseline mark" '|' b.[20]

(* --- Pool --- *)

(* The values of a batch whose items all succeeded. *)
let values results = Array.map (function Ok y -> y | Error e -> raise e) results

let test_pool_matches_sequential () =
  let input = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "parallel = sequential" (Array.map f input)
    (values (Pool.map_result ~domains:4 f input))

let test_pool_empty () =
  Alcotest.(check (array int)) "empty" [||] (values (Pool.map_result (fun x -> x) [||]))

let test_pool_single_domain () =
  let input = [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "domains:1" [| 2; 4; 6 |]
    (values (Pool.map_result ~domains:1 (fun x -> 2 * x) input))

let test_pool_order_preserved () =
  let input = Array.init 200 (fun i -> 200 - i) in
  let out = values (Pool.map_result ~domains:2 (fun x -> -x) input) in
  Array.iteri (fun i x -> Alcotest.(check int) "order" (-(200 - i)) x) out

let test_pool_map_result_isolates () =
  let input = Array.init 64 (fun i -> i) in
  let out =
    Pool.map_result ~domains:2 (fun x -> if x = 13 then failwith "boom" else 2 * x) input
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok y -> Alcotest.(check int) "survivor" (2 * i) y
      | Error (Failure m) ->
        Alcotest.(check int) "only index 13 fails" 13 i;
        Alcotest.(check string) "failure carried" "boom" m
      | Error e -> Alcotest.failf "unexpected error at %d: %s" i (Printexc.to_string e))
    out

let test_pool_now_monotonic () =
  let a = Pool.now () in
  let b = Pool.now () in
  let c = Pool.now () in
  Alcotest.(check bool) "non-decreasing" true (a <= b && b <= c);
  Alcotest.(check bool) "plausible wall clock" true (a > 0.0)

let test_pool_persistent_reuse () =
  (* One explicit pool serves many batches; workers survive between them. *)
  let pool = Pool.create ~domains:2 () in
  let f x = (3 * x) + 1 in
  for round = 1 to 5 do
    let input = Array.init (16 * round) (fun i -> i + round) in
    let out = Pool.await (Pool.submit pool f input) in
    Array.iteri
      (fun i r ->
        match r with
        | Ok y -> Alcotest.(check int) "batch value" (f input.(i)) y
        | Error e -> Alcotest.failf "round %d item %d: %s" round i (Printexc.to_string e))
      out
  done;
  Pool.shutdown pool

let test_pool_drains_after_failure () =
  (* A failing batch must not wedge the pool: every item's outcome is
     recorded, and the same pool keeps serving later batches. *)
  let pool = Pool.create ~domains:2 () in
  let bad = Pool.await (Pool.submit pool (fun x -> if x mod 7 = 3 then failwith "boom" else x)
                          (Array.init 50 (fun i -> i))) in
  Array.iteri
    (fun i r ->
      match (r, i mod 7 = 3) with
      | Ok y, false -> Alcotest.(check int) "survivor" i y
      | Error (Failure _), true -> ()
      | Ok _, true -> Alcotest.failf "item %d should have failed" i
      | Error e, _ -> Alcotest.failf "unexpected error at %d: %s" i (Printexc.to_string e))
    bad;
  let ok = Pool.await (Pool.submit pool (fun x -> x * x) (Array.init 20 (fun i -> i))) in
  Array.iteri
    (fun i r ->
      match r with
      | Ok y -> Alcotest.(check int) "pool still usable" (i * i) y
      | Error e -> Alcotest.failf "post-failure item %d: %s" i (Printexc.to_string e))
    ok;
  Pool.shutdown pool

let test_pool_submit_after_shutdown () =
  (* A stopped pool degrades to caller-only evaluation instead of hanging. *)
  let pool = Pool.create ~domains:1 () in
  Pool.shutdown pool;
  let out = Pool.await (Pool.submit pool (fun x -> x + 1) [| 1; 2; 3 |]) in
  Alcotest.(check (array int)) "caller evaluates" [| 2; 3; 4 |]
    (Array.map (function Ok y -> y | Error _ -> -1) out)

let test_pool_max_workers_one () =
  (* max_workers:1 keeps everything on the submitting domain. *)
  let pool = Pool.create ~domains:2 () in
  let self = Domain.self () in
  let out =
    Pool.await
      (Pool.submit pool ~max_workers:1 (fun _ -> Domain.self () = self)
         (Array.init 30 (fun i -> i)))
  in
  Array.iter
    (function
      | Ok ran_on_caller -> Alcotest.(check bool) "ran on caller" true ran_on_caller
      | Error e -> Alcotest.failf "unexpected: %s" (Printexc.to_string e))
    out;
  Pool.shutdown pool

(* The default pool holds one worker fewer than [default_domains]: the
   submitting caller is the other participant.  A two-domain batch whose
   items wait for each other therefore runs on exactly two domains. *)
let test_pool_default_participants () =
  Alcotest.(check int) "default workers"
    (max 1 (Pool.default_domains () - 1))
    (Pool.workers (Pool.get_default ()));
  let started = Atomic.make 0 in
  let item () =
    Atomic.incr started;
    let t0 = Unix.gettimeofday () in
    while Atomic.get started < 2 && Unix.gettimeofday () -. t0 < 5.0 do
      Domain.cpu_relax ()
    done;
    (Domain.self () :> int)
  in
  let domains = values (Pool.map_result ~domains:2 item (Array.make 6 ())) in
  Alcotest.(check int) "participating domains" 2
    (List.length (List.sort_uniq compare (Array.to_list domains)))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 () in
  ignore (Pool.await (Pool.submit pool (fun x -> x + 1) [| 1; 2 |]));
  Pool.shutdown pool;
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* Still usable after repeated shutdowns: the caller evaluates. *)
  let out = Pool.await (Pool.submit pool (fun x -> x * 2) [| 3 |]) in
  Alcotest.(check bool) "caller evaluates" true (out.(0) = Ok 6)

let test_pool_shutdown_concurrent_domains () =
  (* Several domains race to shut the same pool down: exactly one performs
     the join, the rest block until it finishes, and every caller returns
     only once no worker domain is running.  (A second join of the same
     domain would crash — this is the regression test for that.) *)
  let pool = Pool.create ~domains:2 () in
  ignore (Pool.await (Pool.submit pool (fun x -> x) (Array.init 32 Fun.id)));
  let racers = Array.init 4 (fun _ -> Domain.spawn (fun () -> Pool.shutdown pool)) in
  Array.iter Domain.join racers;
  Pool.shutdown pool;
  let out = Pool.await (Pool.submit pool (fun x -> x + 1) [| 41 |]) in
  Alcotest.(check bool) "drained pool still answers" true (out.(0) = Ok 42)

let test_pool_cancelled_hook () =
  (* The cooperative hook the serve daemon's deadlines are built on: once it
     reports true, unclaimed items resolve as Cancelled without running.
     max_workers:1 keeps every item unclaimed until await, so the whole
     batch is skipped deterministically. *)
  let pool = Pool.create ~domains:2 () in
  let ran = Atomic.make 0 in
  let task =
    Pool.submit pool ~max_workers:1
      ~cancelled:(fun () -> true)
      (fun x -> Atomic.incr ran; x) (Array.init 8 Fun.id)
  in
  let out = Pool.await task in
  Array.iter
    (function
      | Error Pool.Cancelled -> ()
      | r ->
        Alcotest.failf "expected Cancelled, got %s"
          (match r with Ok _ -> "Ok" | Error e -> Printexc.to_string e))
    out;
  Alcotest.(check int) "nothing executed" 0 (Atomic.get ran);
  Pool.shutdown pool

(* pool.idle_ns, read after [shutdown] has joined the workers so every
   wait they were charged for has been counted. *)
let idle_ns_of run =
  let idle () = Inltune_obs.Metric.value (Inltune_obs.Metric.counter "pool.idle_ns") in
  let before = idle () in
  let pool = Pool.create ~domains:1 () in
  run pool;
  Pool.shutdown pool;
  idle () - before

(* Time a worker spends parked before it joins any batch is not
   starvation: a 200 ms gap before a batch adds (about) nothing. *)
let test_pool_idle_excludes_parked_gap () =
  let idle =
    idle_ns_of (fun pool ->
        Unix.sleepf 0.2;
        ignore (Pool.await (Pool.submit pool (fun x -> x + 1) [| 1; 2 |])))
  in
  Alcotest.(check bool) (Printf.sprintf "idle %d ns < 50 ms" idle) true (idle < 50_000_000)

(* Starvation inside a batch is charged: the worker takes one of two
   items and finishes at once, then waits while the submitter's item
   sleeps 100 ms.  Each item first waits (bounded) for the other
   participant to hold the other one, so neither can take both. *)
let test_pool_idle_charges_in_batch_wait () =
  let idle =
    idle_ns_of (fun pool ->
        let self = Domain.self () in
        let on_caller = Atomic.make false and on_worker = Atomic.make false in
        let wait_for flag =
          let t0 = Unix.gettimeofday () in
          while (not (Atomic.get flag)) && Unix.gettimeofday () -. t0 < 5.0 do
            Domain.cpu_relax ()
          done
        in
        let item _ =
          if Domain.self () = self then begin
            Atomic.set on_caller true;
            wait_for on_worker;
            Unix.sleepf 0.1
          end
          else begin
            Atomic.set on_worker true;
            wait_for on_caller
          end
        in
        ignore (Pool.await (Pool.submit pool ~max_workers:2 item [| 0; 1 |])))
  in
  Alcotest.(check bool)
    (Printf.sprintf "idle %d ns in [50 ms, 1 s]" idle)
    true
    (idle >= 50_000_000 && idle <= 1_000_000_000)

let test_pool_priority_batch_completes () =
  (* A priority batch submitted behind a bulk batch still completes with
     correct per-item results (ordering itself is a scheduling property; this
     pins down that the priority path never corrupts or drops outcomes). *)
  let pool = Pool.create ~domains:2 () in
  let bulk = Pool.submit pool (fun x -> x * x) (Array.init 200 Fun.id) in
  let pri = Pool.submit pool ~priority:true (fun x -> -x) (Array.init 20 Fun.id) in
  let pout = Pool.await pri in
  Array.iteri
    (fun i r ->
      match r with
      | Ok y -> Alcotest.(check int) "priority result" (-i) y
      | Error e -> Alcotest.failf "priority item %d: %s" i (Printexc.to_string e))
    pout;
  let bout = Pool.await bulk in
  Array.iteri
    (fun i r ->
      match r with
      | Ok y -> Alcotest.(check int) "bulk result" (i * i) y
      | Error e -> Alcotest.failf "bulk item %d: %s" i (Printexc.to_string e))
    bout;
  Pool.shutdown pool

(* --- Textfile --- *)

(* Every operation answers a directory, or a path under a missing
   directory, with an [Error] that names the path — never an exception. *)
let test_textfile_path_errors () =
  let dir = Filename.temp_dir "inltune_textfile" "" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun path ->
          let named what = function
            | Ok _ -> Alcotest.failf "%s %s: expected an error" what path
            | Error m ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %s names the path (%s)" what path m)
                true
                (String.starts_with ~prefix:(path ^ ": ") m)
          in
          named "read" (Textfile.read path);
          named "fold_lines" (Textfile.fold_lines path ~init:0 (fun n _ _ -> n + 1));
          named "write" (Textfile.write path "x\n");
          named "open_append" (Result.map close_out (Textfile.open_append path)))
        [ dir; Filename.concat dir "missing/file.jsonl" ])

(* A file a writer left mid-line gets a newline before the next record; an
   absent, empty or newline-terminated one gets nothing extra. *)
let test_textfile_append_ends_torn_line () =
  let path = Filename.temp_file "inltune_textfile" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let append_to before =
        (match before with
        | None -> Sys.remove path
        | Some text -> Result.get_ok (Textfile.write path text));
        let oc = Result.get_ok (Textfile.open_append path) in
        output_string oc "{\"n\":2}\n";
        close_out oc;
        Result.get_ok (Textfile.read path)
      in
      Alcotest.(check string) "torn line ended first" "{\"n\":1}\n{\"n\n{\"n\":2}\n"
        (append_to (Some "{\"n\":1}\n{\"n"));
      Alcotest.(check string) "terminated file untouched" "{\"n\":1}\n{\"n\":2}\n"
        (append_to (Some "{\"n\":1}\n"));
      Alcotest.(check string) "empty file untouched" "{\"n\":2}\n" (append_to (Some ""));
      Alcotest.(check string) "absent file created" "{\"n\":2}\n" (append_to None))

(* Lines are numbered from 1, and a last line without its newline is still
   a line. *)
let test_textfile_fold_lines () =
  let path = Filename.temp_file "inltune_textfile" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Result.get_ok (Textfile.write path "a\n\nb\nc");
      Alcotest.(check (list (pair int string)))
        "numbered lines" [ (1, "a"); (2, ""); (3, "b"); (4, "c") ]
        (List.rev
           (Result.get_ok (Textfile.fold_lines path ~init:[] (fun acc n l -> (n, l) :: acc)))))

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng range bounds", `Quick, test_rng_range_bounds);
    ("rng range singleton", `Quick, test_rng_range_singleton);
    ("rng invalid args", `Quick, test_rng_invalid);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng copy", `Quick, test_rng_copy);
    ("rng chance extremes", `Quick, test_rng_chance_extremes);
    ("rng shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("stats mean", `Quick, test_mean);
    ("stats geomean", `Quick, test_geomean);
    ("stats geomean rejects non-positive", `Quick, test_geomean_rejects_nonpositive);
    ("stats geomean empty", `Quick, test_geomean_empty);
    ("stats stddev", `Quick, test_stddev);
    ("stats reduction pct", `Quick, test_reduction_pct);
    ("stats ratio", `Quick, test_ratio);
    ("stats percentile", `Quick, test_percentile);
    ("stats percentile rejects bad input", `Quick, test_percentile_rejects_bad_input);
    ("vec push/get", `Quick, test_vec_push_get);
    ("vec pop", `Quick, test_vec_pop);
    ("vec bounds checked", `Quick, test_vec_bounds);
    ("vec roundtrip", `Quick, test_vec_roundtrip);
    ("vec append", `Quick, test_vec_append);
    ("vec fold/iteri", `Quick, test_vec_fold_iter);
    ("vec clear", `Quick, test_vec_clear);
    ("table renders", `Quick, test_table_renders);
    ("table arity checked", `Quick, test_table_arity_checked);
    ("table bar midpoint", `Quick, test_table_bar_midpoint);
    ("pool matches sequential", `Quick, test_pool_matches_sequential);
    ("pool empty", `Quick, test_pool_empty);
    ("pool single domain", `Quick, test_pool_single_domain);
    ("pool preserves order", `Quick, test_pool_order_preserved);
    ("pool map_result isolates failures", `Quick, test_pool_map_result_isolates);
    ("pool now monotonic", `Quick, test_pool_now_monotonic);
    ("pool persistent across batches", `Quick, test_pool_persistent_reuse);
    ("pool drains after worker failure", `Quick, test_pool_drains_after_failure);
    ("pool submit after shutdown", `Quick, test_pool_submit_after_shutdown);
    ("pool max_workers one", `Quick, test_pool_max_workers_one);
    ("pool default participants", `Quick, test_pool_default_participants);
    ("pool shutdown idempotent", `Quick, test_pool_shutdown_idempotent);
    ("pool shutdown concurrent domains", `Quick, test_pool_shutdown_concurrent_domains);
    ("pool cancelled hook", `Quick, test_pool_cancelled_hook);
    ("pool idle excludes parked gap", `Quick, test_pool_idle_excludes_parked_gap);
    ("pool idle charges in-batch wait", `Quick, test_pool_idle_charges_in_batch_wait);
    ("pool priority batch completes", `Quick, test_pool_priority_batch_completes);
    ("textfile path errors name the path", `Quick, test_textfile_path_errors);
    ("textfile append ends a torn line", `Quick, test_textfile_append_ends_torn_line);
    ("textfile fold_lines numbers lines", `Quick, test_textfile_fold_lines);
  ]
