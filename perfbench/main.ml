(* The repo benchmark's driver program.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--update-goldens]

   Runs one workload in this process: set-up several times (median), three
   one-domain searches for the peak heap, an untimed warm-up run, then
   timed runs for S seconds, each followed by a host-speed calibration
   sample (see [Calib]), and a from-scratch verification of the result.  Every output is checked.  With --trace 0
   it reports the end-to-end metrics; with --trace 1
   it runs the traced run and the layer replay instead and reports the
   per-layer metrics, writing the spans to perfbench/out/.  The last line of
   stdout is one JSON object: correct, attempted, failed, metrics. *)

open Perfbench
module Json = Inltune_obs.Json
module Rng = Inltune_support.Rng
module Stats = Inltune_support.Stats
module Fitcache = Inltune_core.Fitcache

let out_dir = Filename.concat "perfbench" "out"
let goldens_path = Filename.concat "perfbench" "goldens.json"
let workloads = [ "tune-opt-spec"; "tune-adapt-corpus" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  update_goldens : bool;
}

let usage msg =
  Printf.eprintf "perfbench: %s\nusage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    msg (String.concat "|" workloads);
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: w :: rest when List.mem w workloads -> go { a with workload = w } rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun s -> s > 0.0) (float_of_string_opt s) ->
      go { a with seconds = float_of_string s } rest
    | "--trace" :: (("0" | "1") as t) :: rest -> go { a with trace = t = "1" } rest
    | "--update-goldens" :: rest -> go { a with update_goldens = true } rest
    | [] -> a
    | x :: _ -> usage ("bad argument " ^ x)
  in
  let a =
    go { workload = ""; seed = 0; seconds = 10.0; trace = false; update_goldens = false } argv
  in
  if a.workload = "" then usage "--workload is required";
  a

(* --- checks ---------------------------------------------------------------------- *)

let attempted = ref 0
let failures = ref []

let check ok msg =
  incr attempted;
  if not ok then failures := msg :: !failures

let add_checks (n, fails) =
  attempted := !attempted + n;
  failures := fails @ !failures

(* --- measurement helpers --------------------------------------------------------- *)

let median l = Stats.percentile (Array.of_list l) 50.0
let mb words = Float.of_int (words * (Sys.word_size / 8)) /. 1048576.0

let time f =
  let t0 = Spans.now () in
  let r = f () in
  (r, Spans.now () -. t0)

(* Run [f] until [seconds] have passed and at least [min_runs] runs were
   made.  [f] returns its result and the wall time of the part it times.
   Each run starts after a full major collection and is followed by a
   calibration sample (one more precedes the first run).  Returns each run's
   result, wall seconds and normalised seconds (see [Calib]). *)
let timed_loop ~seconds ~min_runs f =
  let start = Spans.now () in
  let one before =
    Gc.compact ();
    let r, dt = f () in
    let after = Calib.sample () in
    ((r, dt, Calib.normalise ~before ~after dt), after)
  in
  let rec go acc before n =
    if n >= min_runs && Spans.now () -. start >= seconds then List.rev acc
    else
      let run, after = one before in
      go (run :: acc) after (n + 1)
  in
  go [] (Calib.sample ()) 0

(* [f ()] after a full major collection, with the most major-heap words in
   use during it: sampled at the end of every major GC cycle, and once more
   at the end.  Meanwhile the collector runs with [space_overhead] 10, so
   garbage not yet collected is a small part of each sample and the peak
   comes close to the largest reachable heap.  At the default setting that
   garbage, which depends on where cycles happen to end, moved the peak by
   up to a fifth between identical searches.  Words in use, not the heap's
   size: the runtime keeps freed pools from earlier runs, so the size
   depends on the process's history more than on the run. *)
let peak_live f =
  let g = Gc.get () in
  Gc.set { g with Gc.space_overhead = 10 };
  Fun.protect ~finally:(fun () -> Gc.set g) @@ fun () ->
  Gc.compact ();
  let peak = Atomic.make 0 in
  let note () = Atomic.set peak (max (Atomic.get peak) (Gc.quick_stat ()).Gc.live_words) in
  let alarm = Gc.create_alarm note in
  let r = f () in
  Gc.delete_alarm alarm;
  note ();
  (r, Atomic.get peak)

(* Set-ups: five groups of three, with a calibration sample before the
   first group and after each.  Returns each one's (wall, normalised)
   seconds. *)
let setup_times f = List.map (fun ((), dt, n) -> (dt, n)) (Calib.timed ~groups:5 ~per_group:3 f)

(* [setup] holds each set-up's (wall, normalised) seconds, [runs] each
   timed run's (wall, normalised) seconds, [peaks] the peak heap words in
   use of each one-domain search.  The time metrics are normalised medians;
   the wall medians are printed beside them. *)
let e2e ~setup ~runs ~peaks =
  let wall = List.map fst runs in
  Printf.printf "timed runs (wall s): %s\none-domain searches (peak MB): %s\nwall medians: setup %.4f s of %d, run %.4f s of %d\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") wall))
    (String.concat " " (List.map (fun w -> Printf.sprintf "%.3f" (mb w)) peaks))
    (median (List.map fst setup))
    (List.length setup) (median wall) (List.length runs);
  Printf.printf "calibration: median %.4f s of %d samples (reference %.2f s)\n"
    (median !Calib.samples) (List.length !Calib.samples) Calib.reference_s;
  [
    Layers.m "setup_s" "s" (median (List.map snd setup));
    Layers.m "run_s" "s" (median (List.map snd runs));
    Layers.m "peak_heap_mb" "MB" (median (List.map mb peaks));
  ]

(* --- goldens --------------------------------------------------------------------- *)

let read_goldens () =
  if not (Sys.file_exists goldens_path) then []
  else
    let ic = open_in_bin goldens_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.parse s with Ok (Json.Obj kv) -> kv | _ -> []

let check_golden (t : Tune.t) ~update fp =
  let goldens = read_goldens () in
  if update then begin
    let kv = (t.Tune.name, Tune.fingerprint_to_json fp) :: List.remove_assoc t.Tune.name goldens in
    let oc = open_out_bin goldens_path in
    output_string oc (Json.encode (Json.Obj (List.sort compare kv)) ^ "\n");
    close_out oc
  end
  else
    match Option.bind (List.assoc_opt t.Tune.name goldens) Tune.fingerprint_of_json with
    | Some g -> check (g = fp) (t.Tune.name ^ ": search result differs from the golden")
    | None -> check false (t.Tune.name ^ ": no golden in " ^ goldens_path)

(* --- workloads ------------------------------------------------------------------- *)

let replay_sample = 32

(* One-domain searches whose peak heap gives [peak_heap_mb], after an
   untimed one-domain warm-up.  They run before any pool worker domain
   exists: with two domains, how much each has allocated when a cycle ends
   depends on their timing. *)
let peak_searches = 3

(* Passes of the from-scratch verification after the timed searches. *)
let verify_passes = 2

let bench_tune (t : Tune.t) a =
  let setup = setup_times (fun () -> Tune.setup t) in
  let gen_s = Layers.median (List.map Spans.dur (Spans.named "workloads.gen")) in
  let search t () =
    Tune.reset t;
    let r = Tune.tune t in
    Tune.detach t;
    r
  in
  let run () = time (search t) in
  let peaks =
    if a.trace then []
    else begin
      ignore (search { t with Tune.domains = 1 } () : Inltune_ga.Evolve.result);
      List.init peak_searches (fun _ -> peak_live (search { t with Tune.domains = 1 }))
    end
  in
  let r0, _ = run () in
  let fp0 = Tune.fingerprint r0 in
  check_golden t ~update:a.update_goldens fp0;
  let same what r = check (Tune.fingerprint r = fp0) (t.Tune.name ^ ": " ^ what ^ " differs from the warm-up") in
  let timed ~seconds () =
    List.map (fun (r, dt, norm) -> same "timed search" r; (dt, norm)) (timed_loop ~seconds ~min_runs:3 run)
  in
  let rng = Rng.create a.seed in
  if not a.trace then begin
    let runs = timed ~seconds:a.seconds () in
    let peaks = List.map (fun (r, w) -> same "one-domain search" r; w) peaks in
    add_checks (Tune.verify t r0 ~rng ~passes:verify_passes);
    e2e ~setup ~runs ~peaks
  end
  else begin
    let untraced = List.map fst (timed ~seconds:(a.seconds /. 2.0) ()) in
    Tune.reset t;
    let (r, cells, pool), traced = time (fun () -> Tune.traced_search t) in
    let sims = Fitcache.size () in
    check (Tune.fingerprint r = fp0) (t.Tune.name ^ ": spanned-grid search differs from Tuner's");
    let classified = Tune.classify t cells in
    let n = Tune.replay_misses t ~rng ~sample:replay_sample classified in
    Tune.detach t;
    check (n > 0) (t.Tune.name ^ ": no cell missed the fitness cache");
    let ms (c : Tune.cell) = (c.Tune.c1 -. c.Tune.c0) *. 1000.0 in
    let hits = List.filter_map (fun (c, _, miss) -> if miss then None else Some (ms c)) classified in
    let misses = List.filter_map (fun (c, _, miss) -> if miss then Some (ms c) else None) classified in
    let search =
      {
        Layers.cells = List.length cells;
        sims;
        misses = List.length misses;
        hit_ms = hits;
        miss_ms = misses;
        evaluations = r.Inltune_ga.Evolve.evaluations;
        pool;
      }
    in
    Layers.all ~gen_s ~trace_overhead:(traced /. median untraced) search
  end

(* --- output ---------------------------------------------------------------------- *)

let print_result metrics =
  let failed = List.length !failures + List.length !Replay.mismatches in
  let attempted = !attempted + List.length !Replay.mismatches in
  List.iter (fun s -> prerr_endline ("check failed: " ^ s)) (List.rev !failures @ List.rev !Replay.mismatches);
  List.iter (fun (l : Layers.metric) -> Printf.printf "%-36s %14.6g %s\n" l.Layers.name l.Layers.value l.Layers.unit_) metrics;
  Printf.printf "%-36s %14.6g (%d of %d checks)\n" "failed_frac"
    (Float.of_int failed /. Float.of_int (max 1 attempted)) failed attempted;
  let metric (l : Layers.metric) =
    (l.Layers.name, Json.Obj [ ("value", Json.Num l.Layers.value); ("unit", Json.Str l.Layers.unit_) ])
  in
  print_endline
    (Json.encode
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (Float.of_int attempted));
            ("failed", Json.Num (Float.of_int failed));
            ("metrics", Json.Obj (List.map metric metrics));
          ]));
  failed = 0

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  (* At most two domains: the caller plus the default pool's one worker. *)
  Inltune_support.Pool.set_default_domains 1;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Spans.set_enabled a.trace;
  let metrics =
    match a.workload with
    | "tune-opt-spec" -> bench_tune Tune.opt_spec a
    | _ ->
      let cache_file = Filename.concat out_dir "fitcache.jsonl" in
      let m = bench_tune (Tune.adapt_corpus ~cache_file) a in
      if Sys.file_exists cache_file then Sys.remove cache_file;
      m
  in
  if a.trace then
    Spans.write (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" a.workload a.seed));
  exit (if print_result metrics then 0 else 1)
