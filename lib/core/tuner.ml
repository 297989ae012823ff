open Inltune_opt
open Inltune_vm
module Workloads = Inltune_workloads
module Ga = Inltune_ga

(* The paper's compilation scenarios (Section 6 / Table 4 columns) and the
   GA driver that tunes the heuristic for each. *)

type scenario_id = Adapt_x86 | Opt_bal_x86 | Opt_tot_x86 | Adapt_ppc | Opt_bal_ppc

type scenario_spec = {
  id : scenario_id;
  label : string;
  scenario : Machine.scenario;
  platform : Platform.t;
  goal : Objective.goal;
}

let spec_of = function
  | Adapt_x86 ->
    { id = Adapt_x86; label = "Adapt"; scenario = Machine.Adapt; platform = Platform.x86; goal = Objective.Balance }
  | Opt_bal_x86 ->
    { id = Opt_bal_x86; label = "Opt:Bal"; scenario = Machine.Opt; platform = Platform.x86; goal = Objective.Balance }
  | Opt_tot_x86 ->
    { id = Opt_tot_x86; label = "Opt:Tot"; scenario = Machine.Opt; platform = Platform.x86; goal = Objective.Total }
  | Adapt_ppc ->
    { id = Adapt_ppc; label = "Adapt (PPC)"; scenario = Machine.Adapt; platform = Platform.ppc; goal = Objective.Balance }
  | Opt_bal_ppc ->
    { id = Opt_bal_ppc; label = "Opt:Bal (PPC)"; scenario = Machine.Opt; platform = Platform.ppc; goal = Objective.Balance }

let all_scenarios = [ Adapt_x86; Opt_bal_x86; Opt_tot_x86; Adapt_ppc; Opt_bal_ppc ]

let scenario_names = [ "adapt"; "opt:bal"; "opt:tot"; "adapt-ppc"; "opt:bal-ppc" ]

let scenario_of_string = function
  | "adapt" -> Adapt_x86
  | "opt:bal" -> Opt_bal_x86
  | "opt:tot" -> Opt_tot_x86
  | "adapt-ppc" -> Adapt_ppc
  | "opt:bal-ppc" -> Opt_bal_ppc
  | s -> invalid_arg ("Tuner.scenario_of_string: " ^ s)

(* File-name-safe scenario tag (checkpoint paths, per-scenario artifacts). *)
let scenario_slug = function
  | Adapt_x86 -> "adapt"
  | Opt_bal_x86 -> "opt_bal"
  | Opt_tot_x86 -> "opt_tot"
  | Adapt_ppc -> "adapt_ppc"
  | Opt_bal_ppc -> "opt_bal_ppc"

(* Search effort.  The paper evolves 20 individuals over 500 generations on
   real hardware over days; the simulator makes far smaller budgets converge
   because the fitness landscape is deterministic. *)
type budget = { pop : int; gens : int; seed : int }

let default_budget = { pop = 16; gens = 10; seed = 42 }

(* The GA parameters every search below runs under. *)
let ga_params ?domains budget =
  {
    Ga.Evolve.default_params with
    Ga.Evolve.pop_size = budget.pop;
    generations = budget.gens;
    seed = budget.seed;
    domains;
  }

(* [Evolve.check_params] of a budget: the CLI and the daemon ask it before
   any simulation. *)
let check_budget budget = Ga.Evolve.check_params (ga_params budget)

type outcome = {
  spec : scenario_spec;
  heuristic : Heuristic.t;
  fitness : float;  (* geomean vs default; < 1 is an improvement *)
  ga : Ga.Evolve.result;
  degraded : string option;  (* why the search stopped early, if it did *)
}

(* Failure isolation for fitness evaluation: penalize and quarantine genomes
   whose evaluation fails, stop the search (with the best-known answer) if a
   generation's failure rate explodes.  The searches below run under
   [guard ~max_retries:1], the GA's default; [max_retries] bounds the
   retries of an injected fault, the only failure retried. *)
let guard ~max_retries = { Ga.Evolve.default_guard with Ga.Evolve.max_retries }

(* A search can degrade so far that its "best" genome is itself a penalized
   failure; shipping that as a tuned heuristic would be worse than useless,
   so fall back to the Jikes default (paper Table 4, column 1). *)
let best_or_default (ga : Ga.Evolve.result) =
  if Float.is_finite ga.Ga.Evolve.best_fitness
     && ga.Ga.Evolve.best_fitness < Ga.Evolve.default_guard.Ga.Evolve.penalty
  then Heuristic.of_array ga.Ga.Evolve.best
  else Heuristic.default

(* The search name checkpoint lines carry, so a resume under another
   scenario, suite or plan is refused instead of reusing the wrong fitness
   values from the memo cache. *)
let search_id id suite what =
  Printf.sprintf "ga %s [%s] %s" (scenario_slug id)
    (String.concat "," (List.map (fun bm -> bm.Workloads.Suites.bname) suite))
    what

(* Tune the heuristic for one scenario over the training suite.  Evaluation
   goes through the flat genome × benchmark grid ([Evolve.run ?grid]) so
   fresh simulations saturate the domain pool. *)
let tune ?(budget = default_budget) ?on_generation ?on_stats ?(suite = Workloads.Suites.spec)
    ?checkpoint ?resume ?domains ?plan id =
  let spec = spec_of id in
  let grid =
    Objective.genome_grid ?plan ~suite ~scenario:spec.scenario ~platform:spec.platform
      ~goal:spec.goal ()
  in
  let params = ga_params ?domains budget in
  let search =
    search_id id suite ("plan " ^ Plan.digest (Option.value plan ~default:Plan.default))
  in
  let ga =
    Ga.Evolve.run ?on_generation ?on_stats ?checkpoint ?resume ~search ~grid
      ~spec:Params.genome_spec ~params ()
  in
  {
    spec;
    heuristic = best_or_default ga;
    fitness = ga.Ga.Evolve.best_fitness;
    ga;
    degraded = ga.Ga.Evolve.stopped;
  }

(* Plan tuning: co-evolve the five heuristic parameters with the pass
   schedule (toggles, strengths, payoff order) over the composite
   {!Params.plan_genome_spec}.  Fitness values are normalized against the
   same stock baseline as {!tune}, so the two searches are directly
   comparable. *)
type plan_outcome = {
  p_spec : scenario_spec;
  p_heuristic : Heuristic.t;
  p_plan : Plan.t;
  p_fitness : float;
  p_ga : Ga.Evolve.result;
  p_degraded : string option;
}

(* Same fallback logic as {!best_or_default}: a penalized "best" would ship
   a broken schedule, so fall back to the stock heuristic and plan. *)
let plan_best_or_default (ga : Ga.Evolve.result) =
  if Float.is_finite ga.Ga.Evolve.best_fitness
     && ga.Ga.Evolve.best_fitness < Ga.Evolve.default_guard.Ga.Evolve.penalty
  then Params.split_plan_genome ga.Ga.Evolve.best
  else (Heuristic.default, Plan.default)

let tune_plan ?(budget = default_budget) ?on_generation ?on_stats
    ?(suite = Workloads.Suites.spec) ?checkpoint ?resume ?domains id =
  let spec = spec_of id in
  let grid =
    Objective.plan_genome_grid ~suite ~scenario:spec.scenario ~platform:spec.platform
      ~goal:spec.goal
  in
  let params = ga_params ?domains budget in
  let ga =
    Ga.Evolve.run ?on_generation ?on_stats ?checkpoint ?resume
      ~search:(search_id id suite "plan-genome") ~grid ~spec:Params.plan_genome_spec
      ~params ()
  in
  let heuristic, plan = plan_best_or_default ga in
  {
    p_spec = spec;
    p_heuristic = heuristic;
    p_plan = plan;
    p_fitness = ga.Ga.Evolve.best_fitness;
    p_ga = ga;
    p_degraded = ga.Ga.Evolve.stopped;
  }

(* Per-program tuning for running time (paper Fig. 10). *)
let tune_per_program ?(budget = default_budget) ?domains ?plan bm =
  let suite = [ bm ] in
  let grid =
    Objective.genome_grid ?plan ~suite ~scenario:Machine.Opt ~platform:Platform.x86
      ~goal:Objective.Running ()
  in
  let params = ga_params ?domains budget in
  let ga = Ga.Evolve.run ~grid ~spec:Params.genome_spec ~params () in
  (best_or_default ga, ga.Ga.Evolve.best_fitness)
