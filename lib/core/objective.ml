open Inltune_opt
module Stats = Inltune_support.Stats

(* The paper's fitness functions (Section 3.1): minimize the geometric mean
   over the training suite of a per-benchmark metric — running time, total
   time, or the balance  Perf(s) = factor * Running(s) + Total(s)  with
   factor = Total(s_def) / Running(s_def).

   Each per-benchmark metric is normalized by the default heuristic's value
   for the same benchmark so the geomean is scale-free (1.0 = exactly the
   default heuristic's performance). *)

type goal = Running | Total | Balance

let goal_name = function Running -> "running" | Total -> "total" | Balance -> "balance"

let goal_of_string = function
  | "running" -> Running
  | "total" -> Total
  | "balance" -> Balance
  | s -> invalid_arg ("Objective.goal_of_string: " ^ s)

let perf goal ~(t : Measure.times) ~(default : Measure.times) =
  match goal with
  | Running -> t.Measure.running /. default.Measure.running
  | Total -> t.Measure.total /. default.Measure.total
  | Balance ->
    let factor = default.Measure.total /. default.Measure.running in
    let v = (factor *. t.Measure.running) +. t.Measure.total in
    let d = (factor *. default.Measure.running) +. default.Measure.total in
    v /. d

(* The one scorer every fitness builder shares.  Baseline (default-heuristic,
   default-plan) measurements are taken once, up front, on the calling
   domain, so the returned scorer is safe to call from worker domains; a
   cell is one candidate's [perf] on one benchmark, the candidate decoded to
   the plan it runs under and its decider.  Baselines always use the default
   plan, so 1.0 means "the stock system" whatever the candidate's plan. *)
let scorer ~iterations ~suite ~scenario ~platform ~goal candidate =
  let axis =
    Array.of_list
      (List.map (fun bm -> (bm, Measure.run_default ~iterations ~scenario ~platform bm)) suite)
  in
  let score g (bm, default) =
    let plan, decider = candidate g in
    perf goal ~t:(Measure.run_decider ~iterations ~plan ~scenario ~platform ~decider bm) ~default
  in
  (axis, score)

(* The scalar form: one candidate's cells in suite order, then the geomean —
   the exact float operations of a grid row under [geomean]. *)
let fold (axis, score) g = Stats.geomean (Array.map (score g) axis)

let geomean _ cells = Stats.geomean cells

let fitness ?(plan = Plan.default) ~suite ~scenario ~platform ~goal =
  fold
    (scorer ~iterations:3 ~suite ~scenario ~platform ~goal (fun h ->
         (plan, Fitcache.Heuristic h)))

(* The fault-injection gate of the evaluation sites, so CI can make the
   k-th evaluation raise, burn its fuel budget, or return corrupt output and
   exercise retry/penalty/quarantine end to end. *)
let fault_gate site =
  match Inltune_resilience.Faultinject.check site with
  | Some Inltune_resilience.Faultinject.Raise ->
    raise (Inltune_resilience.Faultinject.Injected site)
  | Some Inltune_resilience.Faultinject.Hang ->
    (* A hung evaluation is one that burns its whole fuel budget. *)
    raise Inltune_vm.Machine.Out_of_fuel
  | Some Inltune_resilience.Faultinject.Corrupt -> true
  | None -> false

let gated f x = if fault_gate "eval" then Float.nan else f x

(* Each grid cell is one pool work item and one "eval" fault-gate
   occurrence; the scalar genome builders gate once per genome. *)
let grid ~iterations ~suite ~scenario ~platform ~goal ~combine candidate =
  let axis, score = scorer ~iterations ~suite ~scenario ~platform ~goal candidate in
  {
    Inltune_ga.Evolve.grid_axis = axis;
    grid_cell = (fun g -> gated (score g));
    grid_combine = combine;
  }

let heuristic_genome plan g = (plan, Fitcache.Heuristic (Heuristic.of_array g))

(* Plan-genome mode: the genome is the five Table 1 genes followed by the
   plan genes ({!Params.plan_genome_spec}); heuristic and plan are decoded
   together per evaluation. *)
let plan_genome g =
  let heuristic, plan = Params.split_plan_genome g in
  (plan, Fitcache.Heuristic heuristic)

let genome_fitness ?(plan = Plan.default) ~suite ~scenario ~platform ~goal =
  gated (fold (scorer ~iterations:3 ~suite ~scenario ~platform ~goal (heuristic_genome plan)))

let genome_grid ?(plan = Plan.default) ~suite ~scenario ~platform ~goal () =
  grid ~iterations:3 ~suite ~scenario ~platform ~goal ~combine:geomean (heuristic_genome plan)

let plan_genome_fitness ~suite ~scenario ~platform ~goal =
  gated (fold (scorer ~iterations:3 ~suite ~scenario ~platform ~goal plan_genome))

let plan_genome_grid ~suite ~scenario ~platform ~goal =
  grid ~iterations:3 ~suite ~scenario ~platform ~goal ~combine:geomean plan_genome
