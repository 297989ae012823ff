(** Fitness of tree genomes: decode → unchanged VM → geomean-vs-default
    score with parsimony pressure.

    Measurements route through the decision-signature fitness cache
    ({!Inltune_core.Fitcache.lookup_or_measure_policy}, [~static:true]):
    under Opt, structurally different trees making identical decisions share
    one simulation — including with plain heuristics. *)

open Inltune_vm
module W = Inltune_workloads
module Measure = Inltune_core.Measure
module Objective = Inltune_core.Objective

(** Measure one benchmark under the tree's decoded policy (cached). *)
val measure :
  ?iterations:int ->
  scenario:Machine.scenario ->
  platform:Platform.t ->
  Tree.t ->
  W.Suites.benchmark ->
  Measure.times

(** Geomean of per-benchmark cells plus [parsimony · size]. *)
val score : parsimony:float -> Tree.t -> float array -> float

(** Per-benchmark grid for the evolution engine's work pool; baselines are
    forced eagerly on the calling domain.  Cells are NaN under an injected
    evaluation fault (resilience tests). *)
val grid :
  ?iterations:int ->
  suite:W.Suites.benchmark list ->
  scenario:Machine.scenario ->
  platform:Platform.t ->
  goal:Objective.goal ->
  parsimony:float ->
  unit ->
  (Tree.t, W.Suites.benchmark * Measure.times) Inltune_ga.Evolve.grid
