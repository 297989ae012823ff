open Inltune_vm
module Measure = Inltune_core.Measure

(** End-to-end evaluation of stored policies: simulate a benchmark with the
    policy plugged into the inliner, and build the paper-style comparison
    table — default heuristic vs any labeled systems (GA-tuned heuristic,
    learned policy, evolved tree) — on a suite (typically the unseen
    DaCapo+JBB programs). *)

(** Simulate one benchmark with [store] deciding every inlining:
    {!Inltune_core.Measure.run_decider} of {!Apply.decider}.  Threshold
    stores share the heuristic walk's fitness-cache entries, stored trees
    are keyed by their content digest. *)
val measure :
  ?iterations:int ->
  scenario:Machine.scenario ->
  platform:Platform.t ->
  Store.t ->
  Inltune_workloads.Suites.benchmark ->
  Measure.times

type geo = { g_running : float; g_total : float }
    (** geometric-mean time ratios vs the default heuristic; < 1 is faster *)

type many_row = {
  n_bench : string;
  n_default : Measure.times;
  n_cells : Measure.times list;  (** one per system, in label order *)
}

(** An n-way comparison: arbitrary labeled systems, each normalized against
    the shared default-heuristic baseline (the 4-column
    default/GA-tuned/CART/GP protocol). *)
type many_report = {
  m_labels : string list;
  m_rows : many_row list;
  m_scenario : Machine.scenario;
  m_platform : Platform.t;
}

(** [compare_many ~scenario ~platform systems benches] measures every
    benchmark under every labeled system ([iterations] applies to the
    default baseline; each system closure owns its measurement settings).
    Emits one ["policy.eval"] trace event per (benchmark, system). *)
val compare_many :
  ?iterations:int ->
  scenario:Machine.scenario ->
  platform:Platform.t ->
  (string * (Inltune_workloads.Suites.benchmark -> Measure.times)) list ->
  Inltune_workloads.Suites.benchmark list ->
  many_report

(** Per-system geomean ratios, in label order ([1.0]s when no rows). *)
val many_geos : many_report -> (string * geo) list

(** The n-way comparison as a report table. *)
val many_table : many_report -> Inltune_support.Table.t
