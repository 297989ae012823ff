module Rng = Inltune_support.Rng

(* Local-search baselines for the tuning problem: hill climbing with random
   restarts, and simulated annealing.  Both share the GA's genome spec and a
   fixed evaluation budget so searchers can be compared fairly (the paper
   chose a GA; these quantify what that choice buys). *)

type result = {
  best : int array;
  best_fitness : float;
  evaluations : int;
}

(* A neighbour: perturb one gene, small step or full reset. *)
let neighbour spec rng g =
  let g' = Array.copy g in
  let i = Rng.int rng (Array.length g) in
  let lo, hi = Genome.range spec i in
  let span = hi - lo + 1 in
  if Rng.chance rng 0.3 || span <= 4 then g'.(i) <- Rng.range rng lo hi
  else begin
    let step = max 1 (span / 10) in
    let delta = Rng.range rng 1 step * if Rng.bool rng then 1 else -1 in
    g'.(i) <- max lo (min hi (g'.(i) + delta))
  end;
  g'

(* The budget bound of every baseline search, [Evolve.random_search]
   included. *)
let check_budget budget = if budget < 1 then Error "need at least 1 evaluation" else Ok ()

(* First-improvement hill climbing with random restarts: accept a neighbour
   as soon as it improves; restart from a random point after [patience]
   consecutive non-improving neighbours. *)
let hill_climb ?(patience = 20) ~spec ~budget ~seed ~fitness () =
  Result.iter_error (fun m -> invalid_arg ("Localsearch.hill_climb: " ^ m)) (check_budget budget);
  let rng = Rng.create seed in
  let evaluations = ref 0 in
  let eval g =
    incr evaluations;
    fitness g
  in
  let current = ref (Genome.random spec rng) in
  let current_fit = ref (eval !current) in
  let best = ref !current and best_fit = ref !current_fit in
  let stale = ref 0 in
  while !evaluations < budget do
    if !stale >= patience then begin
      current := Genome.random spec rng;
      current_fit := eval !current;
      stale := 0
    end
    else begin
      let cand = neighbour spec rng !current in
      let f = eval cand in
      if f < !current_fit then begin
        current := cand;
        current_fit := f;
        stale := 0
      end
      else incr stale
    end;
    if !current_fit < !best_fit then begin
      best := !current;
      best_fit := !current_fit
    end
  done;
  { best = !best; best_fitness = !best_fit; evaluations = !evaluations }

(* Simulated annealing with a geometric cooling schedule.  Worse neighbours
   are accepted with probability exp(-delta / temperature). *)
let anneal ?(t0 = 0.05) ?(cooling = 0.98) ~spec ~budget ~seed ~fitness () =
  Result.iter_error (fun m -> invalid_arg ("Localsearch.anneal: " ^ m)) (check_budget budget);
  if not (cooling > 0.0 && cooling < 1.0) then invalid_arg "Localsearch.anneal: cooling";
  let rng = Rng.create seed in
  let evaluations = ref 0 in
  let eval g =
    incr evaluations;
    fitness g
  in
  let current = ref (Genome.random spec rng) in
  let current_fit = ref (eval !current) in
  let best = ref !current and best_fit = ref !current_fit in
  let temperature = ref t0 in
  while !evaluations < budget do
    let cand = neighbour spec rng !current in
    let f = eval cand in
    let accept =
      f < !current_fit
      || Rng.float rng 1.0 < Float.exp (-.(f -. !current_fit) /. Float.max 1e-9 !temperature)
    in
    if accept then begin
      current := cand;
      current_fit := f
    end;
    if !current_fit < !best_fit then begin
      best := !current;
      best_fit := !current_fit
    end;
    temperature := !temperature *. cooling
  done;
  { best = !best; best_fitness = !best_fit; evaluations = !evaluations }
