(** Local-search baselines (hill climbing with restarts, simulated
    annealing) sharing the GA's genome spec and evaluation-budget accounting
    so search algorithms can be compared fairly. *)

type result = {
  best : int array;
  best_fitness : float;
  evaluations : int;
}

(** [Error] unless [budget >= 1], the bound {!hill_climb}, {!anneal} and
    [Evolve.random_search] enforce. *)
val check_budget : int -> (unit, string) Stdlib.result

(** First-improvement hill climbing with random restarts after [patience]
    consecutive non-improving neighbours (default 20).  Minimizes. *)
val hill_climb :
  ?patience:int ->
  spec:Genome.spec ->
  budget:int ->
  seed:int ->
  fitness:(int array -> float) ->
  unit ->
  result

(** Simulated annealing with geometric cooling ([t0] initial temperature,
    [cooling] in (0, 1)).  Minimizes. *)
val anneal :
  ?t0:float ->
  ?cooling:float ->
  spec:Genome.spec ->
  budget:int ->
  seed:int ->
  fitness:(int array -> float) ->
  unit ->
  result
