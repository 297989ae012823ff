open Inltune_vm
module W = Inltune_workloads
module Measure = Inltune_core.Measure
module Stats = Inltune_support.Stats
module Table = Inltune_support.Table
module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event

(* Run stored policies end-to-end and compare them with the default and
   GA-tuned heuristics, mirroring the paper's test-suite protocol: train on
   SPECjvm98, report normalized times on unseen DaCapo+JBB. *)

let measure ?iterations ~scenario ~platform store bm =
  Measure.run_decider ?iterations ~scenario ~platform ~decider:(Apply.decider store) bm

type geo = { g_running : float; g_total : float }

(* --- n-way comparison ---------------------------------------------------- *)
(* Arbitrary labeled measurement closures (default vs GA-tuned vs CART vs
   GP, or any subset), each normalized against the shared default
   baseline. *)

type many_row = {
  n_bench : string;
  n_default : Measure.times;
  n_cells : Measure.times list;  (* one per system, in label order *)
}

type many_report = {
  m_labels : string list;
  m_rows : many_row list;
  m_scenario : Machine.scenario;
  m_platform : Platform.t;
}

let compare_many ?(iterations = 3) ~scenario ~platform systems benches =
  let m_labels = List.map fst systems in
  let m_rows =
    List.map
      (fun bm ->
        let d = Measure.run_default ~iterations ~scenario ~platform bm in
        let cells =
          List.map
            (fun (label, f) ->
              let t = f bm in
              if Trace.enabled () then
                Trace.emit "policy.eval"
                  ~fields:
                    [
                      ("bench", Event.Str bm.W.Suites.bname);
                      ("policy", Event.Str label);
                      ("running_ratio", Event.Float (t.Measure.running /. d.Measure.running));
                      ("total_ratio", Event.Float (t.Measure.total /. d.Measure.total));
                    ];
              t)
            systems
        in
        { n_bench = bm.W.Suites.bname; n_default = d; n_cells = cells })
      benches
  in
  { m_labels; m_rows; m_scenario = scenario; m_platform = platform }

let many_geos r =
  List.mapi
    (fun i label ->
      let ratios f =
        Array.of_list (List.map (fun row -> f (List.nth row.n_cells i) /. f row.n_default) r.m_rows)
      in
      let g =
        if r.m_rows = [] then { g_running = 1.0; g_total = 1.0 }
        else
          {
            g_running = Stats.geomean (ratios (fun t -> t.Measure.running));
            g_total = Stats.geomean (ratios (fun t -> t.Measure.total));
          }
      in
      (label, g))
    r.m_labels

let many_table r =
  let header =
    Array.of_list
      ("program" :: List.concat_map (fun l -> [ l ^ ":run"; l ^ ":tot" ]) r.m_labels)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "policy comparison (%s, %s; time vs default, lower is better)"
           (Machine.scenario_name r.m_scenario) r.m_platform.Platform.pname)
      ~header
      ~aligns:(Array.map (fun _ -> Table.Right) header)
  in
  let cell v = Table.fmt_float v in
  List.iter
    (fun row ->
      let cols =
        List.concat_map
          (fun c ->
            [
              cell (c.Measure.running /. row.n_default.Measure.running);
              cell (c.Measure.total /. row.n_default.Measure.total);
            ])
          row.n_cells
      in
      Table.add_row t (Array.of_list (row.n_bench :: cols)))
    r.m_rows;
  Table.add_rule t;
  let geo_cols =
    List.concat_map (fun (_, g) -> [ cell g.g_running; cell g.g_total ]) (many_geos r)
  in
  Table.add_row t (Array.of_list ("geomean" :: geo_cols));
  t
