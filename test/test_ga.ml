module Ga = Inltune_ga
module Rng = Inltune_support.Rng

let spec3 = Ga.Genome.spec [| (0, 10); (-5, 5); (1, 100) |]

(* --- Genome --- *)

let test_genome_random_in_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 200 do
    let g = Ga.Genome.random spec3 rng in
    Alcotest.(check bool) "valid" true (Ga.Genome.valid spec3 g)
  done

let test_genome_clamp () =
  Alcotest.(check (array int)) "clamped" [| 10; -5; 1 |]
    (Ga.Genome.clamp spec3 [| 99; -99; 0 |])

let test_genome_valid_rejects_bad () =
  Alcotest.(check bool) "wrong arity" false (Ga.Genome.valid spec3 [| 1; 2 |]);
  Alcotest.(check bool) "out of range" false (Ga.Genome.valid spec3 [| 11; 0; 1 |])

let test_genome_key_injective_on_distinct () =
  Alcotest.(check bool) "distinct keys" true
    (Ga.Genome.key [| 1; 23 |] <> Ga.Genome.key [| 12; 3 |])

let test_genome_space_size () =
  Alcotest.(check (float 1e-9)) "11*11*100" (11.0 *. 11.0 *. 100.0) (Ga.Genome.space_size spec3)

let test_genome_empty_range_rejected () =
  Alcotest.(check bool) "empty range" true
    (try ignore (Ga.Genome.spec [| (3, 2) |]); false with Invalid_argument _ -> true)

let test_paper_space_size () =
  (* Table 1's ranges give 50*20*15*4000*400 = 2.4e10; the paper quotes
     ~3e11 (presumably counting a wider encoding).  Either way the space is
     far beyond exhaustive search, which is all the claim needs. *)
  let s = Ga.Genome.space_size (Ga.Genome.spec Inltune_opt.Heuristic.ranges) in
  Alcotest.(check bool) "intractably large" true (s > 1.0e10)

(* --- Evolve --- *)

(* Sphere-like function with known optimum at (3, -2, 50). *)
let sphere g =
  let d0 = Float.of_int (g.(0) - 3) in
  let d1 = Float.of_int (g.(1) + 2) in
  let d2 = Float.of_int (g.(2) - 50) in
  (d0 *. d0) +. (d1 *. d1) +. (d2 *. d2 /. 100.0)

let run_ga ?(seed = 42) ?(gens = 30) () =
  Ga.Evolve.run ~spec:spec3
    ~params:{ Ga.Evolve.default_params with Ga.Evolve.generations = gens; seed; domains = Some 1 }
    ~fitness:sphere ()

let test_evolve_converges_on_sphere () =
  let r = run_ga () in
  Alcotest.(check bool)
    (Printf.sprintf "best fitness small (%f)" r.Ga.Evolve.best_fitness)
    true (r.Ga.Evolve.best_fitness < 2.0)

let test_evolve_deterministic () =
  let a = run_ga () and b = run_ga () in
  Alcotest.(check (array int)) "same best" a.Ga.Evolve.best b.Ga.Evolve.best;
  Alcotest.(check (float 1e-12)) "same fitness" a.Ga.Evolve.best_fitness b.Ga.Evolve.best_fitness

let test_evolve_seed_changes_search () =
  let a = run_ga ~seed:1 () and b = run_ga ~seed:2 () in
  (* Same optimum region, but the trajectories must differ. *)
  Alcotest.(check bool) "histories differ" true
    (List.map (fun p -> p.Ga.Evolve.mean_fitness) a.Ga.Evolve.history
    <> List.map (fun p -> p.Ga.Evolve.mean_fitness) b.Ga.Evolve.history)

let test_evolve_best_never_worsens () =
  let r = run_ga () in
  let rec monotone : Ga.Evolve.progress list -> unit = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "monotone best" true
        (b.Ga.Evolve.best_fitness <= a.Ga.Evolve.best_fitness);
      monotone rest
    | _ -> ()
  in
  monotone r.Ga.Evolve.history

let test_evolve_history_length () =
  let r = run_ga ~gens:7 () in
  Alcotest.(check int) "gens + initial" 8 (List.length r.Ga.Evolve.history)

let test_evolve_best_valid () =
  let r = run_ga () in
  Alcotest.(check bool) "best in ranges" true (Ga.Genome.valid spec3 r.Ga.Evolve.best)

let test_evolve_caches () =
  let calls = ref 0 in
  let f g =
    incr calls;
    sphere g
  in
  let r =
    Ga.Evolve.run ~spec:spec3
      ~params:{ Ga.Evolve.default_params with Ga.Evolve.generations = 20; domains = Some 1 }
      ~fitness:f ()
  in
  Alcotest.(check int) "fitness called once per distinct genome" r.Ga.Evolve.evaluations !calls;
  Alcotest.(check bool) "cache used" true (r.Ga.Evolve.cache_hits > 0)

let test_evolve_parallel_matches_sequential () =
  let seq =
    Ga.Evolve.run ~spec:spec3
      ~params:{ Ga.Evolve.default_params with Ga.Evolve.generations = 10; domains = Some 1 }
      ~fitness:sphere ()
  in
  let par =
    Ga.Evolve.run ~spec:spec3
      ~params:{ Ga.Evolve.default_params with Ga.Evolve.generations = 10; domains = Some 4 }
      ~fitness:sphere ()
  in
  Alcotest.(check (array int)) "same best either way" seq.Ga.Evolve.best par.Ga.Evolve.best

let test_evolve_rejects_bad_params () =
  let bad params =
    try
      ignore (Ga.Evolve.run ~spec:spec3 ~params ~fitness:sphere ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "pop 1" true
    (bad { Ga.Evolve.default_params with Ga.Evolve.pop_size = 1 });
  Alcotest.(check bool) "all elites" true
    (bad { Ga.Evolve.default_params with Ga.Evolve.pop_size = 4; elites = 4 });
  Alcotest.(check bool) "tournament 0" true
    (bad { Ga.Evolve.default_params with Ga.Evolve.tournament = 0 })

let test_evolve_needs_an_evaluator () =
  Alcotest.check_raises "neither ~fitness nor ~grid"
    (Invalid_argument "Evolve.run: needs ~fitness or ~grid") (fun () ->
      ignore (Ga.Evolve.run ~spec:spec3 ~params:Ga.Evolve.default_params ()))

let test_crossover_mutation_stay_in_range () =
  (* Indirect: run many generations with high mutation and check validity of
     the best (operators never escape the ranges). *)
  let r =
    Ga.Evolve.run ~spec:spec3
      ~params:
        { Ga.Evolve.default_params with Ga.Evolve.generations = 15; mutation_prob = 0.9; domains = Some 1 }
      ~fitness:sphere ()
  in
  Alcotest.(check bool) "valid under heavy mutation" true (Ga.Genome.valid spec3 r.Ga.Evolve.best)

let test_random_search_improves_over_first () =
  let first_fitness = sphere (Ga.Genome.random spec3 (Rng.create 5)) in
  let _, best = Ga.Evolve.random_search ~spec:spec3 ~budget:300 ~seed:5 ~fitness:sphere () in
  Alcotest.(check bool) "random search beats first draw" true (best <= first_fitness)

let test_ga_beats_random_search_on_budget () =
  let r = run_ga ~gens:30 () in
  let budget = r.Ga.Evolve.evaluations in
  let _, rs = Ga.Evolve.random_search ~spec:spec3 ~budget ~seed:42 ~fitness:sphere () in
  Alcotest.(check bool)
    (Printf.sprintf "GA (%.3f) <= random (%.3f) at equal budget" r.Ga.Evolve.best_fitness rs)
    true
    (r.Ga.Evolve.best_fitness <= rs)

let suite =
  [
    ("genome random in range", `Quick, test_genome_random_in_range);
    ("genome clamp", `Quick, test_genome_clamp);
    ("genome validity", `Quick, test_genome_valid_rejects_bad);
    ("genome keys distinct", `Quick, test_genome_key_injective_on_distinct);
    ("genome space size", `Quick, test_genome_space_size);
    ("genome empty range rejected", `Quick, test_genome_empty_range_rejected);
    ("paper search space ~3e11", `Quick, test_paper_space_size);
    ("evolve converges on sphere", `Quick, test_evolve_converges_on_sphere);
    ("evolve deterministic", `Quick, test_evolve_deterministic);
    ("evolve seed sensitivity", `Quick, test_evolve_seed_changes_search);
    ("evolve best-so-far monotone", `Quick, test_evolve_best_never_worsens);
    ("evolve history length", `Quick, test_evolve_history_length);
    ("evolve best stays valid", `Quick, test_evolve_best_valid);
    ("evolve memoizes fitness", `Quick, test_evolve_caches);
    ("evolve parallel = sequential", `Quick, test_evolve_parallel_matches_sequential);
    ("evolve rejects bad params", `Quick, test_evolve_rejects_bad_params);
    ("evolve needs fitness or grid", `Quick, test_evolve_needs_an_evaluator);
    ("operators respect ranges", `Quick, test_crossover_mutation_stay_in_range);
    ("random search sanity", `Quick, test_random_search_improves_over_first);
    ("GA beats random search at equal budget", `Quick, test_ga_beats_random_search_on_budget);
  ]
