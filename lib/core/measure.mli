open Inltune_opt
open Inltune_vm
module Workloads = Inltune_workloads

(** Benchmark measurement following the paper's methodology: one simulated VM
    per (benchmark, scenario, platform, heuristic) combination. *)

type times = {
  running : float;  (** best later-iteration exec cycles *)
  total : float;    (** first-iteration exec + compile cycles *)
  compile : float;  (** first-iteration compile cycles *)
  raw : Runner.measurement;
}

val of_measurement : Runner.measurement -> times

(** [run ~scenario ~platform ~heuristic bm] simulates the benchmark
    ([iterations] defaults to 3 so the adaptive system reaches steady
    state).  [inline_enabled:false] is the Fig. 1 no-inlining baseline;
    [plan] (default {!Inltune_opt.Plan.default}) selects the optimizing
    tier's pass schedule.  Results are shared through {!Fitcache}: a query
    whose decision signature was already measured reuses that measurement
    instead of simulating, and a simulation reuses earlier optimizing
    compiles through {!Fitcache.lookup_or_simulate}'s keys; the
    "measure.simulations" counter reports full simulations actually run. *)
val run :
  ?iterations:int ->
  ?inline_enabled:bool ->
  ?plan:Plan.t ->
  scenario:Machine.scenario ->
  platform:Platform.t ->
  heuristic:Heuristic.t ->
  Workloads.Suites.benchmark ->
  times

(** Like {!run} with the Jikes default heuristic; memoized (normalized bars
    divide by this constantly — callers get a physically shared [times]).
    The mutex-guarded memo key includes [inline_enabled], and a miss routes
    through {!run}, i.e. through {!Fitcache}, so a matching decision
    signature still avoids the simulation.  Safe from worker domains; the
    "measure.memo_hits"/"measure.memo_misses" counters report this table's
    outcomes exactly. *)
val run_default :
  ?iterations:int ->
  scenario:Machine.scenario ->
  platform:Platform.t ->
  Workloads.Suites.benchmark ->
  times

(** The paper's Fig. 1 baseline: same scenario, inlining disabled. *)
val run_no_inlining :
  ?iterations:int ->
  scenario:Machine.scenario ->
  platform:Platform.t ->
  Workloads.Suites.benchmark ->
  times
