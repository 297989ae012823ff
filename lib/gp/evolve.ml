(* Genetic-programming policy evolution: the tree-genome instantiation of
   lib/ga's representation-generic engine.  Where `tune` searches the five
   Fig. 3/4 parameters, this searches the space of decision rules — and
   everything else (sandboxed fitness with quarantine, per-generation
   checkpoints with bit-identical resume, the flat genome × benchmark pool
   grid, the decision-signature fitness cache) is the same machinery, reused
   through [Evolve.run_repr].  A tree's checkpoint form is its canonical
   text, so a checkpoint is human-inspectable with nothing but `jq`.

   The one GP-specific evaluation trick: when a flip-oracle dataset is
   supplied, agreement with its labels is a cheap surrogate fitness, and any
   fresh tree whose agreement trails the current elite's by more than
   [prefilter_margin] is assigned a pessimistic surrogate instead of being
   simulated at all.  Surrogates enter the memo cache and hence the
   checkpoint, so resume replays them bit-identically. *)

module E = Inltune_ga.Evolve
module W = Inltune_workloads
module Json = Inltune_obs.Json
module Metric = Inltune_obs.Metric
module Objective = Inltune_core.Objective
module Features = Inltune_policy.Features
open Inltune_vm

type params = {
  pop_size : int;
  generations : int;
  crossover_prob : float;
  mutation_prob : float;    (* per individual (tree), not per gene *)
  tournament : int;
  elites : int;
  seed : int;
  domains : int option;
  parsimony : float;        (* fitness += parsimony * tree size *)
  prefilter_margin : float; (* skip simulation when agreement trails the
                               elite's by more than this *)
  iterations : int;         (* VM iterations per measurement *)
}

let default_params =
  {
    pop_size = 16;
    generations = 10;
    crossover_prob = 0.9;
    mutation_prob = 0.35;
    tournament = 2;
    elites = 2;
    seed = 42;
    domains = None;
    parsimony = 1e-4;
    prefilter_margin = 0.05;
    iterations = 3;
  }

type result = {
  best : Tree.t;
  best_fitness : float;
  history : E.progress list;      (* oldest first *)
  evaluations : int;
  cache_hits : int;
  failures : int;
  quarantined : int;
  stopped : string option;
  prefilter_skips : int;          (* this process only — not checkpointed *)
  prefilter_candidates : int;
}

let default_guard = { E.default_guard with classify = Objective.transient_failure }

let engine_params (p : params) =
  {
    E.pop_size = p.pop_size;
    generations = p.generations;
    crossover_prob = p.crossover_prob;
    mutation_prob = p.mutation_prob;
    tournament = p.tournament;
    elites = p.elites;
    seed = p.seed;
    domains = p.domains;
  }

let repr (p : params) =
  {
    E.r_key = Tree.digest;
    r_random = Genetic.random;
    r_crossover = Genetic.crossover;
    r_mutate = Genetic.mutate ~prob:p.mutation_prob;
    r_copy = Fun.id;
    r_encode = (fun t -> Json.Str (Tree.to_text t));
    r_decode =
      (function Json.Str s -> Tree.of_text ~dim:Features.dim s | _ -> Error "not a tree text");
    r_no_best = Json.Str "";
  }

let run ?on_generation ?on_stats ?(guard = default_guard) ?checkpoint ?resume ?dataset
    ~suite ~scenario ~platform ~goal ~params () =
  let skips = ref 0 in
  let candidates = ref 0 in
  let c_skips = Metric.counter "gp.prefilter_skips" in
  let c_pass = Metric.counter "gp.prefilter_pass" in
  let prefilter =
    match dataset with
    | None -> None
    | Some training when Array.length training = 0 -> None
    | Some training ->
      Some
        (fun ~best tree ->
          match best with
          | None -> None (* nothing to beat yet: simulate *)
          | Some (elite, elite_fit) ->
            incr candidates;
            let a = Decode.agreement training tree in
            let ea = Decode.agreement training elite in
            if a < ea -. params.prefilter_margin then begin
              incr skips;
              Metric.incr c_skips;
              (* Pessimistic surrogate, strictly worse than any real
                 geomean-vs-default fitness the elite could hold and ordered
                 by disagreement so the cache stays informative. *)
              Some (Float.max elite_fit 1.0 +. (1.0 -. a))
            end
            else begin
              Metric.incr c_pass;
              None
            end)
  in
  let grid =
    Fitness.grid ~iterations:params.iterations ~suite ~scenario ~platform ~goal
      ~parsimony:params.parsimony ()
  in
  let search =
    Printf.sprintf "gp %s %s %s [%s] parsimony=%.17g iterations=%d"
      (Machine.scenario_name scenario) platform.Platform.pname (Objective.goal_name goal)
      (String.concat "," (List.map (fun bm -> bm.W.Suites.bname) suite))
      params.parsimony params.iterations
  in
  let r =
    E.run_repr ?on_generation ?on_stats ~guard ?checkpoint ?resume ~search ~grid ?prefilter
      ~best_view:Tree.to_text ~label:"gp" ~repr:(repr params) ~params:(engine_params params) ()
  in
  {
    best = Option.value ~default:Tree.False r.E.s_best_genome;
    best_fitness = r.s_fitness;
    history = r.s_progress;
    evaluations = r.s_evals;
    cache_hits = r.s_hits;
    failures = r.s_failed;
    quarantined = r.s_quarantined;
    stopped = r.s_stopped;
    prefilter_skips = !skips;
    prefilter_candidates = !candidates;
  }
