open Inltune_opt
open Inltune_vm
module W = Inltune_workloads
module Table = Inltune_support.Table
module Stats = Inltune_support.Stats

(* One driver per table/figure of the paper's evaluation.  Each returns the
   rendered tables (and prints progress on stderr for the long GA runs); the
   bench harness and the CLI both route through here. *)

(* Tuned heuristics are shared across experiments: Table 4 and Figs. 5–9 all
   use the same five GA runs. *)
type ctx = {
  budget : Tuner.budget;
  verbose : bool;
  checkpoint : string option;  (* base path; per-scenario suffix appended *)
  resume : string option;
  domains : int option;        (* evaluation parallelism; None = pool default *)
  mutable tuned : (Tuner.scenario_id * Tuner.outcome) list;
}

let make_ctx ?(verbose = true) ?(budget = Tuner.default_budget) ?checkpoint ?resume ?domains () =
  { budget; verbose; checkpoint; resume; domains; tuned = [] }

let progress ctx fmt =
  Printf.ksprintf (fun s -> if ctx.verbose then Printf.eprintf "[inltune] %s\n%!" s) fmt

(* One experiment drives several GA runs (Table 4 tunes all five scenarios),
   so a single --checkpoint path fans out into one file per scenario. *)
let scenario_path base id = Printf.sprintf "%s.%s" base (Tuner.scenario_slug id)

let tuned ctx id =
  match List.assoc_opt id ctx.tuned with
  | Some o -> o
  | None ->
    let spec = Tuner.spec_of id in
    progress ctx "tuning %s (pop %d, %d generations)..." spec.Tuner.label ctx.budget.Tuner.pop
      ctx.budget.Tuner.gens;
    let on_generation (p : Inltune_ga.Evolve.progress) =
      progress ctx "  gen %2d: best %.4f mean %.4f (%d evals)" p.Inltune_ga.Evolve.generation
        p.Inltune_ga.Evolve.best_fitness p.Inltune_ga.Evolve.mean_fitness
        p.Inltune_ga.Evolve.evaluations
    in
    let checkpoint = Option.map (fun b -> scenario_path b id) ctx.checkpoint in
    let resume = Option.map (fun b -> scenario_path b id) ctx.resume in
    let o =
      Tuner.tune ~budget:ctx.budget ~on_generation ?checkpoint ?resume ?domains:ctx.domains id
    in
    ctx.tuned <- (id, o) :: ctx.tuned;
    (match o.Tuner.degraded with
    | Some reason -> progress ctx "  !! search stopped early: %s" reason
    | None -> ());
    progress ctx "  -> %s  fitness %.4f" (Heuristic.to_string o.Tuner.heuristic) o.Tuner.fitness;
    o

(* ---- Figure 1: default heuristic vs no inlining ------------------------- *)

let fig1_rows ~scenario ~platform suite =
  List.map
    (fun bm ->
      let d = Measure.run_default ~scenario ~platform bm in
      let n = Measure.run_no_inlining ~scenario ~platform bm in
      {
        Report.label = bm.W.Suites.bname;
        running_ratio = d.Measure.running /. n.Measure.running;
        total_ratio = d.Measure.total /. n.Measure.total;
      })
    suite

let fig1 () =
  let mk title scenario =
    let rows = fig1_rows ~scenario ~platform:Platform.x86 W.Suites.spec in
    let t, _, _ = Report.bars_table ~title ~baseline_name:"no inlining" rows in
    t
  in
  [
    mk "Fig 1(a): inlining impact, Opt scenario, SPECjvm98, x86 (1.0 = no inlining)" Machine.Opt;
    mk "Fig 1(b): inlining impact, Adapt scenario, SPECjvm98, x86 (1.0 = no inlining)" Machine.Adapt;
  ]

(* ---- Figure 2: execution time vs inline depth --------------------------- *)

let fig2_series ~bench ~scenario ~platform depths =
  let bm = W.Suites.find bench in
  List.map
    (fun d ->
      let heuristic = Heuristic.with_depth Heuristic.default d in
      let t = Measure.run ~scenario ~platform ~heuristic bm in
      (d, Platform.seconds platform (Float.to_int t.Measure.total)))
    depths

let fig2 () =
  let depths = List.init 11 (fun i -> i) in
  let mk bench =
    let t =
      Table.create
        ~title:(Printf.sprintf "Fig 2: total time (s) vs MAX_INLINE_DEPTH, %s, x86" bench)
        ~header:[| "depth"; "Opt (s)"; "Adapt (s)" |]
        ~aligns:[| Table.Right; Table.Right; Table.Right |]
    in
    let opt = fig2_series ~bench ~scenario:Machine.Opt ~platform:Platform.x86 depths in
    let adapt = fig2_series ~bench ~scenario:Machine.Adapt ~platform:Platform.x86 depths in
    List.iter2
      (fun (d, o) (_, a) ->
        Table.add_row t
          [| string_of_int d; Table.fmt_float ~digits:6 o; Table.fmt_float ~digits:6 a |])
      opt adapt;
    t
  in
  [ mk "compress"; mk "jess" ]

(* ---- Parameter sensitivity sweep (extension of Fig. 2 to all params) ---- *)

(* For each Table 1 parameter: hold the others at the Jikes defaults, sweep
   this one across its range, and report the SPEC-suite total-time geomean
   (1.0 = default heuristic) under both scenarios.  Quantifies paper §2's
   "parameter sensitivity" claim beyond MAX_INLINE_DEPTH. *)
let sweep_points = 8

let sweep_values lo hi =
  List.init sweep_points (fun i -> lo + ((hi - lo) * i / (sweep_points - 1)))
  |> List.sort_uniq compare

let sweep_one ~param_index ~scenario ~platform value =
  let g = Heuristic.to_array Heuristic.default in
  g.(param_index) <- value;
  let heuristic = Heuristic.of_array g in
  let ratios =
    List.map
      (fun bm ->
        let d = Measure.run_default ~scenario ~platform bm in
        let t = Measure.run ~scenario ~platform ~heuristic bm in
        t.Measure.total /. d.Measure.total)
      W.Suites.spec
  in
  Stats.geomean (Array.of_list ratios)

let sweep () =
  List.mapi
    (fun idx row ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf "Sweep: SPEC total-time geomean vs %s (others at default; 1.0 = default)"
               row.Params.pname)
          ~header:[| "value"; "Opt"; "Adapt" |]
          ~aligns:[| Table.Right; Table.Right; Table.Right |]
      in
      List.iter
        (fun v ->
          let o = sweep_one ~param_index:idx ~scenario:Machine.Opt ~platform:Platform.x86 v in
          let a = sweep_one ~param_index:idx ~scenario:Machine.Adapt ~platform:Platform.x86 v in
          Table.add_row t
            [| string_of_int v; Table.fmt_float o; Table.fmt_float a |])
        (sweep_values row.Params.lo row.Params.hi);
      t)
    Params.table1

(* ---- Table 1: parameters and ranges ------------------------------------- *)

let table1 () =
  let t =
    Table.create ~title:"Table 1: parameters tuned with the genetic algorithm"
      ~header:[| "parameter"; "description"; "range"; "default" |]
      ~aligns:[| Table.Left; Table.Left; Table.Right; Table.Right |]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [|
          r.Params.pname;
          r.Params.meaning;
          Printf.sprintf "%d-%d" r.Params.lo r.Params.hi;
          string_of_int r.Params.default;
        |])
    Params.table1;
  [ t ]

(* ---- Table 4: tuned parameter values ------------------------------------ *)

let table4 ctx =
  let scenarios = Tuner.all_scenarios in
  let outcomes = List.map (fun id -> tuned ctx id) scenarios in
  let t =
    Table.create ~title:"Table 4: inlining parameter values found (per scenario)"
      ~header:
        (Array.of_list
           ("parameter" :: "Default"
           :: List.map (fun o -> o.Tuner.spec.Tuner.label) outcomes))
      ~aligns:(Array.make (2 + List.length outcomes) Table.Left)
  in
  let row i name getter =
    Table.add_row t
      (Array.of_list
         (name
         :: string_of_int (Heuristic.to_array Heuristic.default).(i)
         :: List.map
              (fun o ->
                let uses_hot = o.Tuner.spec.Tuner.scenario = Machine.Adapt in
                if name = "HOT_CALLEE_MAX_SIZE" && not uses_hot then "NA"
                else string_of_int (getter o.Tuner.heuristic))
              outcomes))
  in
  row 0 "CALLEE_MAX_SIZE" (fun h -> h.Heuristic.callee_max_size);
  row 1 "ALWAYS_INLINE_SIZE" (fun h -> h.Heuristic.always_inline_size);
  row 2 "MAX_INLINE_DEPTH" (fun h -> h.Heuristic.max_inline_depth);
  row 3 "CALLER_MAX_SIZE" (fun h -> h.Heuristic.caller_max_size);
  row 4 "HOT_CALLEE_MAX_SIZE" (fun h -> h.Heuristic.hot_callee_max_size);
  [ t ]

(* ---- Figures 5-9: tuned heuristic vs default, per suite ----------------- *)

type suite_summary = {
  scenario_label : string;
  spec_running : float;
  spec_total : float;
  dacapo_running : float;
  dacapo_total : float;
}

let tuned_rows ~outcome suite =
  let spec = outcome.Tuner.spec in
  List.map
    (fun bm ->
      let d =
        Measure.run_default ~scenario:spec.Tuner.scenario ~platform:spec.Tuner.platform bm
      in
      let t =
        Measure.run ~scenario:spec.Tuner.scenario ~platform:spec.Tuner.platform
          ~heuristic:outcome.Tuner.heuristic bm
      in
      {
        Report.label = bm.W.Suites.bname;
        running_ratio = t.Measure.running /. d.Measure.running;
        total_ratio = t.Measure.total /. d.Measure.total;
      })
    suite

let tuned_figure ctx ~fig ~id =
  let outcome = tuned ctx id in
  let label = outcome.Tuner.spec.Tuner.label in
  let mk part suite =
    let rows = tuned_rows ~outcome suite in
    let title =
      Printf.sprintf "Fig %s: %s tuned heuristic vs Jikes default — %s (1.0 = default)" fig label
        part
    in
    Report.bars_table ~title ~baseline_name:"default" rows
  in
  let t1, spec_run, spec_tot = mk "SPECjvm98" W.Suites.spec in
  let t2, dc_run, dc_tot = mk "DaCapo+JBB" W.Suites.dacapo in
  ( [ t1; t2 ],
    {
      scenario_label = label;
      spec_running = spec_run;
      spec_total = spec_tot;
      dacapo_running = dc_run;
      dacapo_total = dc_tot;
    } )

let fig5 ctx = tuned_figure ctx ~fig:"5" ~id:Tuner.Adapt_x86
let fig6 ctx = tuned_figure ctx ~fig:"6" ~id:Tuner.Opt_bal_x86
let fig7 ctx = tuned_figure ctx ~fig:"7" ~id:Tuner.Opt_tot_x86
let fig8 ctx = tuned_figure ctx ~fig:"8" ~id:Tuner.Adapt_ppc
let fig9 ctx = tuned_figure ctx ~fig:"9" ~id:Tuner.Opt_bal_ppc

(* ---- Figure 10: per-program tuning for running time --------------------- *)

let fig10 ctx =
  let t =
    Table.create
      ~title:"Fig 10: running time when tuning for each program in turn (Opt, x86; 1.0 = default)"
      ~header:[| "benchmark"; "running"; "bar"; "tuned heuristic" |]
      ~aligns:[| Table.Left; Table.Right; Table.Left; Table.Left |]
  in
  let ratios =
    List.map
      (fun bm ->
        progress ctx "per-program tuning: %s..." bm.W.Suites.bname;
        let h, fit = Tuner.tune_per_program ~budget:ctx.budget ?domains:ctx.domains bm in
        Table.add_row t
          [|
            bm.W.Suites.bname;
            Table.fmt_float ~digits:3 fit;
            Table.bar fit;
            Heuristic.to_string h;
          |];
        fit)
      W.Suites.all
  in
  Table.add_rule t;
  let avg = Stats.geomean (Array.of_list ratios) in
  Table.add_row t [| "geomean"; Table.fmt_float ~digits:3 avg; Table.bar avg; "" |];
  [ t ]

(* ---- Table 5: summary of average reductions ----------------------------- *)

let pct_reduction ratio = Printf.sprintf "%.0f%%" (Stats.reduction_pct ratio)

let table5 summaries =
  let t =
    Table.create ~title:"Table 5: average reductions of the tuned heuristics (vs Jikes default)"
      ~header:
        [|
          "scenario"; "SPEC running"; "SPEC total"; "DaCapo running"; "DaCapo total";
        |]
      ~aligns:[| Table.Left; Table.Right; Table.Right; Table.Right; Table.Right |]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [|
          s.scenario_label;
          pct_reduction s.spec_running;
          pct_reduction s.spec_total;
          pct_reduction s.dacapo_running;
          pct_reduction s.dacapo_total;
        |])
    summaries;
  [ t ]

(* ---- everything ---------------------------------------------------------- *)

let print_tables ts = List.iter (fun t -> Table.print t; print_newline ()) ts

let run_all ctx =
  print_tables (table1 ());
  print_tables (fig1 ());
  print_tables (fig2 ());
  print_tables (sweep ());
  print_tables (table4 ctx);
  let tables5, s5 = fig5 ctx in
  print_tables tables5;
  let tables6, s6 = fig6 ctx in
  print_tables tables6;
  let tables7, s7 = fig7 ctx in
  print_tables tables7;
  let tables8, s8 = fig8 ctx in
  print_tables tables8;
  let tables9, s9 = fig9 ctx in
  print_tables tables9;
  print_tables (fig10 ctx);
  print_tables (table5 [ s5; s6; s7; s8; s9 ])

let run_one ctx = function
  | "table1" -> print_tables (table1 ())
  | "fig1" -> print_tables (fig1 ())
  | "fig2" -> print_tables (fig2 ())
  | "table4" -> print_tables (table4 ctx)
  | "fig5" -> print_tables (fst (fig5 ctx))
  | "fig6" -> print_tables (fst (fig6 ctx))
  | "fig7" -> print_tables (fst (fig7 ctx))
  | "fig8" -> print_tables (fst (fig8 ctx))
  | "fig9" -> print_tables (fst (fig9 ctx))
  | "fig10" -> print_tables (fig10 ctx)
  | "sweep" -> print_tables (sweep ())
  | "table5" ->
    let _, s5 = fig5 ctx in
    let _, s6 = fig6 ctx in
    let _, s7 = fig7 ctx in
    let _, s8 = fig8 ctx in
    let _, s9 = fig9 ctx in
    print_tables (table5 [ s5; s6; s7; s8; s9 ])
  | "all" -> run_all ctx
  | s -> invalid_arg ("Experiments.run_one: unknown experiment " ^ s)

let known =
  [ "table1"; "fig1"; "fig2"; "table4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10";
    "table5"; "sweep"; "all" ]
