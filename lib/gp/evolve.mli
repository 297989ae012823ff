(** Genetic-programming policy evolution over {!Tree.t} genomes.

    The tree instantiation of {!Inltune_ga.Evolve.run_repr}: same sandboxed
    fitness with quarantine, per-generation checkpoints with bit-identical
    resume (the engine's codec, trees as canonical texts), flat genome ×
    benchmark pool grid, and decision-signature fitness cache as the
    parameter GA — only the representation differs.  Trace events are
    ["gp.generation"] (with a ["best_genome"] field carrying the best tree's
    canonical text), ["gp.resume"], ["gp.degraded"], ["gp.result"]. *)

open Inltune_vm
module E = Inltune_ga.Evolve
module W = Inltune_workloads
module Objective = Inltune_core.Objective

type params = {
  pop_size : int;
  generations : int;
  crossover_prob : float;
  mutation_prob : float;     (** per individual, not per gene *)
  tournament : int;
  elites : int;
  seed : int;
  domains : int option;
  parsimony : float;         (** fitness += parsimony · tree size *)
  prefilter_margin : float;  (** dataset-agreement slack before a fresh tree
                                 is surrogate-scored instead of simulated *)
  iterations : int;          (** VM iterations per measurement *)
}

val default_params : params

type result = {
  best : Tree.t;
  best_fitness : float;
  history : E.progress list;
  evaluations : int;
  cache_hits : int;
  failures : int;
  quarantined : int;
  stopped : string option;
  prefilter_skips : int;       (** simulations avoided by the agreement
                                   pre-filter, this process only *)
  prefilter_candidates : int;  (** fresh trees the pre-filter examined *)
}

(** {!Inltune_ga.Evolve.default_guard} with transient-failure
    classification. *)
val default_guard : E.guard

(** The tree representation: {!Genetic}'s operators, {!Tree.digest} keys,
    and checkpoint genomes as {!Tree.to_text} strings (the empty string
    before a best tree exists). *)
val repr : params -> Tree.t E.repr

(** Run the evolution.  [checkpoint]/[resume] name the JSONL snapshot file;
    resume checks the stored [pop_size]/[seed] echo and a search name built
    from scenario, platform, goal, suite, parsimony and iterations, raising
    {!Inltune_ga.Evolve.Checkpoint_error} on a mismatch, and then continues
    bit-identically.  [dataset] (flip-oracle training pairs,
    {!Inltune_policy.Dataset.to_training}) enables the agreement pre-filter:
    fresh trees whose label agreement trails the current elite's by more
    than [prefilter_margin] receive a pessimistic surrogate fitness and skip
    simulation; surrogates enter the memo cache and hence the checkpoint, so
    resumed runs replay them exactly.  Counters ["gp.prefilter_skips"] /
    ["gp.prefilter_pass"] report the filter's traffic. *)
val run :
  ?on_generation:(E.progress -> unit) ->
  ?on_stats:(E.gen_stats -> unit) ->
  ?guard:E.guard ->
  ?checkpoint:string ->
  ?resume:string ->
  ?dataset:(float array * bool) array ->
  suite:W.Suites.benchmark list ->
  scenario:Machine.scenario ->
  platform:Platform.t ->
  goal:Objective.goal ->
  params:params ->
  unit ->
  result
