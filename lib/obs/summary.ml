(* Aggregate a JSONL trace back into paper-style tables: which heuristic
   test accepted/rejected call sites (Fig. 3/4 vocabulary), where compile
   cycles went per tier, how optimizer passes spent their time, and how GA
   fitness evolved per generation.  This is the read side of the schema the
   instrumented layers write; it deliberately works on strings so it needs
   no dependency on the opt/vm/ga libraries. *)

module Table = Inltune_support.Table
module Textfile = Inltune_support.Textfile

type record = { ts : float; ev : string; json : Json.t }

let of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok json -> (
    match (Json.member "ev" json, Json.member "ts" json) with
    | Some (Json.Str ev), Some (Json.Num ts) -> Ok { ts; ev; json }
    | _ -> Error "missing \"ev\" or \"ts\"")

(* The parsed records plus the count of malformed lines (a trace cut off
   mid-write must still summarize), accumulated newest first. *)
let add_line ((recs, bad) as acc) line =
  if String.trim line = "" then acc
  else match of_line line with Ok r -> (r :: recs, bad) | Error _ -> (recs, bad + 1)

let finish (recs, bad) = (List.rev recs, bad)
let of_lines lines = finish (List.fold_left add_line ([], 0) lines)

let load_file path =
  Result.map finish (Textfile.fold_lines path ~init:([], 0) (fun acc _ line -> add_line acc line))

(* --- field helpers ------------------------------------------------------ *)

let str r k = Option.bind (Json.member k r.json) Json.to_string
let num r k = Option.bind (Json.member k r.json) Json.to_float
let int_f r k = Option.bind (Json.member k r.json) Json.to_int
let bool_f r k = Option.bind (Json.member k r.json) Json.to_bool

let select ev recs = List.filter (fun r -> r.ev = ev) recs

(* Which heuristic parameter (paper Table 1) governs each decision reason;
   mechanism-level reasons (recursion guard, space cap, custom policy) have
   no tunable parameter. *)
let parameter_of_reason = function
  | "always_inline" -> "ALWAYS_INLINE_SIZE"
  | "callee_too_big" -> "CALLEE_MAX_SIZE"
  | "depth_exceeded" -> "MAX_INLINE_DEPTH"
  | "caller_too_big" -> "CALLER_MAX_SIZE"
  | "all_tests_pass" -> "(all Fig. 3 tests)"
  | "hot_accept" | "hot_callee_too_big" -> "HOT_CALLEE_MAX_SIZE"
  | _ -> "-"

(* --- aggregations (exposed for tests) ----------------------------------- *)

(* reason -> (accepted, count), sorted by count descending. *)
let inline_reasons recs =
  let tbl : (string, bool * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match (str r "reason", bool_f r "accept") with
      | Some reason, Some accept ->
        let _, n = Option.value (Hashtbl.find_opt tbl reason) ~default:(accept, 0) in
        Hashtbl.replace tbl reason (accept, n + 1)
      | _ -> ())
    (select "inline.decision" recs);
  Hashtbl.fold (fun reason (acc, n) l -> (reason, acc, n) :: l) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

(* (gen, best, mean, evals) in generation order. *)
let ga_generations recs =
  List.filter_map
    (fun r ->
      match (int_f r "gen", num r "best", num r "mean", int_f r "evals") with
      | Some g, Some b, Some m, Some e -> Some (g, b, m, e)
      | _ -> None)
    (select "ga.generation" recs)

(* tier -> (compiles, recompiles, cycles, code_bytes). *)
let compile_tiers recs =
  let tbl : (string, int * int * int * int) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun r ->
      match str r "tier" with
      | None -> ()
      | Some tier ->
        let c, rc, cy, cb =
          Option.value (Hashtbl.find_opt tbl tier) ~default:(0, 0, 0, 0)
        in
        let recompile = Option.value (bool_f r "recompile") ~default:false in
        Hashtbl.replace tbl tier
          ( c + 1,
            (rc + if recompile then 1 else 0),
            cy + Option.value (int_f r "cycles") ~default:0,
            cb + Option.value (int_f r "code_bytes") ~default:0 ))
    (select "vm.compile" recs);
  Hashtbl.fold (fun tier v l -> (tier, v) :: l) tbl [] |> List.sort compare

(* pass -> (runs, transforms, total_us, size_delta, sites_inlined).
   [size_delta] sums size_out - size_in over the pass's spans;
   [sites_inlined] attributes inlined call sites to the pass (the inliner
   strategies each report their own).  Spans from traces written before
   those fields existed contribute 0. *)
let pass_totals recs =
  let tbl : (string, int * int * float * int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let prefix = "opt.pass." in
      let pn = String.length prefix in
      if String.length r.ev > pn && String.sub r.ev 0 pn = prefix then begin
        let pass = String.sub r.ev pn (String.length r.ev - pn) in
        let runs, tr, us, ds, inl =
          Option.value (Hashtbl.find_opt tbl pass) ~default:(0, 0, 0.0, 0, 0)
        in
        let dsize =
          match (int_f r "size_in", int_f r "size_out") with
          | Some si, Some so -> so - si
          | _ -> 0
        in
        Hashtbl.replace tbl pass
          ( runs + 1,
            tr + Option.value (int_f r "transforms") ~default:0,
            us +. Option.value (num r "dur_us") ~default:0.0,
            ds + dsize,
            inl + Option.value (int_f r "sites_inlined") ~default:0 )
      end)
    recs;
  Hashtbl.fold (fun pass v l -> (pass, v) :: l) tbl []
  |> List.sort (fun (_, (_, _, a, _, _)) (_, (_, _, b, _, _)) -> compare b a)

(* prog -> (measures, mean total, mean running, mean compile cycles). *)
let measure_by_prog recs =
  let tbl : (string, int * float * float * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match str r "prog" with
      | None -> ()
      | Some prog ->
        let n, t, ru, c =
          Option.value (Hashtbl.find_opt tbl prog) ~default:(0, 0.0, 0.0, 0.0)
        in
        Hashtbl.replace tbl prog
          ( n + 1,
            t +. Option.value (num r "total_cycles") ~default:0.0,
            ru +. Option.value (num r "running_cycles") ~default:0.0,
            c +. Option.value (num r "compile_cycles") ~default:0.0 ))
    (select "vm.measure" recs);
  Hashtbl.fold (fun prog v l -> (prog, v) :: l) tbl [] |> List.sort compare

(* name -> last reported value (counters accumulate, so last wins). *)
let counter_values recs =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match (str r "name", int_f r "value") with
      | Some name, Some v -> Hashtbl.replace tbl name v
      | _ -> ())
    (select "counter" recs);
  Hashtbl.fold (fun name v l -> (name, v) :: l) tbl [] |> List.sort compare

(* A flushed field, nan when an older trace lacks it. *)
let num_or_nan r k = Option.value (num r k) ~default:Float.nan

(* Histogram snapshots by name; the last one wins, like counters. *)
let histogram_values recs =
  let tbl : (string, Metric.hist_snapshot) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match (str r "name", int_f r "count") with
      | Some name, Some count ->
        let f = num_or_nan r in
        Hashtbl.replace tbl name
          {
            Metric.hs_name = name;
            hs_count = count;
            hs_sum = f "sum";
            hs_min = f "min";
            hs_max = f "max";
            hs_mean = f "mean";
            hs_p50 = f "p50";
            hs_p90 = f "p90";
            hs_p99 = f "p99";
          }
      | _ -> ())
    (select "histogram" recs);
  Hashtbl.fold (fun _ h l -> h :: l) tbl [] |> List.sort compare

(* The flushed profile nodes, in path (= tree) order. *)
let prof_nodes recs =
  List.filter_map
    (fun r ->
      match (str r "path", str r "label", int_f r "depth", int_f r "calls") with
      | Some path, Some label, Some depth, Some calls ->
        let f = num_or_nan r in
        Some
          {
            Prof.n_path = path;
            n_label = label;
            n_depth = depth;
            n_calls = calls;
            n_total_us = f "total_us";
            n_self_us = f "self_us";
            n_p50_us = f "p50_us";
            n_p90_us = f "p90_us";
            n_p99_us = f "p99_us";
            n_max_us = f "max_us";
          }
      | _ -> None)
    (select "prof.node" recs)
  |> List.sort compare

(* Whether the trace holds any real events, as opposed to only the
   counter/histogram/profile snapshots every sink flushes on close.
   trace-summary uses this to say "no events" instead of printing a
   counters-only report that looks like a run happened. *)
let has_events recs =
  List.exists (fun r -> r.ev <> "counter" && r.ev <> "histogram" && r.ev <> "prof.node") recs

(* --- tables ------------------------------------------------------------- *)

let pct part whole =
  if whole = 0 then "-" else Printf.sprintf "%5.1f%%" (100.0 *. Float.of_int part /. Float.of_int whole)

let inline_table recs =
  let reasons = inline_reasons recs in
  if reasons = [] then None
  else begin
    let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 reasons in
    let t =
      Table.create ~title:"inlining decisions by reason"
        ~header:[| "reason"; "outcome"; "governing parameter"; "sites"; "share" |]
        ~aligns:[| Table.Left; Table.Left; Table.Left; Table.Right; Table.Right |]
    in
    List.iter
      (fun (reason, accepted, n) ->
        Table.add_row t
          [|
            reason;
            (if accepted then "inline" else "reject");
            parameter_of_reason reason;
            string_of_int n;
            pct n total;
          |])
      reasons;
    Table.add_rule t;
    Table.add_row t [| "total"; ""; ""; string_of_int total; "" |];
    Some t
  end

let compile_table recs =
  let tiers = compile_tiers recs in
  if tiers = [] then None
  else begin
    let t =
      Table.create ~title:"compile-time breakdown by tier"
        ~header:[| "tier"; "compiles"; "recompiles"; "cycles"; "code bytes"; "cycles/compile" |]
        ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right |]
    in
    let tot_cycles =
      List.fold_left (fun acc (_, (_, _, cy, _)) -> acc + cy) 0 tiers
    in
    List.iter
      (fun (tier, (c, rc, cy, cb)) ->
        Table.add_row t
          [|
            tier;
            string_of_int c;
            string_of_int rc;
            string_of_int cy;
            string_of_int cb;
            string_of_int (if c = 0 then 0 else cy / c);
          |])
      tiers;
    Table.add_rule t;
    Table.add_row t [| "total"; ""; ""; string_of_int tot_cycles; ""; "" |];
    Some t
  end

let pass_table recs =
  let passes = pass_totals recs in
  if passes = [] then None
  else begin
    let t =
      Table.create ~title:"optimizer pass totals"
        ~header:
          [| "pass"; "runs"; "transforms"; "inlined"; "size delta"; "total ms"; "us/run" |]
        ~aligns:
          [| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
             Table.Right |]
    in
    List.iter
      (fun (pass, (runs, tr, us, ds, inl)) ->
        Table.add_row t
          [|
            pass;
            string_of_int runs;
            string_of_int tr;
            string_of_int inl;
            Printf.sprintf "%+d" ds;
            Printf.sprintf "%.2f" (us /. 1000.0);
            Printf.sprintf "%.1f" (us /. Float.of_int (max 1 runs));
          |])
      passes;
    Some t
  end

let ga_table recs =
  let gens = ga_generations recs in
  if gens = [] then None
  else begin
    let first_best = match gens with (_, b, _, _) :: _ -> b | [] -> 1.0 in
    let t =
      Table.create ~title:"GA fitness by generation"
        ~header:[| "gen"; "best"; "mean"; "evals"; "best vs gen 0" |]
        ~aligns:[| Table.Right; Table.Right; Table.Right; Table.Right; Table.Left |]
    in
    List.iter
      (fun (g, b, m, e) ->
        Table.add_row t
          [|
            string_of_int g;
            Printf.sprintf "%.4f" b;
            Printf.sprintf "%.4f" m;
            string_of_int e;
            Table.bar (if first_best = 0.0 then 1.0 else b /. first_best);
          |])
      gens;
    Some t
  end

let measure_table recs =
  let rows = measure_by_prog recs in
  if rows = [] then None
  else begin
    let t =
      Table.create ~title:"VM measurements by program (means over the trace)"
        ~header:[| "program"; "measures"; "total"; "running"; "compile" |]
        ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right |]
    in
    List.iter
      (fun (prog, (n, tot, run, comp)) ->
        let mean v = Printf.sprintf "%.0f" (v /. Float.of_int (max 1 n)) in
        Table.add_row t [| prog; string_of_int n; mean tot; mean run; mean comp |])
      rows;
    Some t
  end

let histogram_table recs =
  match histogram_values recs with
  | [] -> None
  | rows ->
    let t =
      Table.create ~title:"histograms"
        ~header:[| "histogram"; "count"; "sum"; "min"; "p50"; "p90"; "p99"; "max"; "mean" |]
        ~aligns:Table.[| Left; Right; Right; Right; Right; Right; Right; Right; Right |]
    in
    List.iter
      (fun (h : Metric.hist_snapshot) ->
        let f = Table.fmt_finite ~digits:2 in
        Table.add_row t
          [|
            h.hs_name; string_of_int h.hs_count; f h.hs_sum; f h.hs_min; f h.hs_p50; f h.hs_p90;
            f h.hs_p99; f h.hs_max; f h.hs_mean;
          |])
      rows;
    Some t

let profile_table recs =
  match prof_nodes recs with [] -> None | nodes -> Some (Prof.table nodes)

let counter_table recs =
  let rows = counter_values recs in
  if rows = [] then None
  else begin
    let t =
      Table.create ~title:"counters"
        ~header:[| "counter"; "value" |]
        ~aligns:[| Table.Left; Table.Right |]
    in
    List.iter (fun (name, v) -> Table.add_row t [| name; string_of_int v |]) rows;
    Some t
  end

(* Every table with data, in report order. *)
let tables recs =
  List.filter_map
    (fun f -> f recs)
    [
      inline_table;
      pass_table;
      compile_table;
      measure_table;
      ga_table;
      profile_table;
      histogram_table;
      counter_table;
    ]
