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

(* A reusable fitness function over a suite.  Baseline (default-heuristic,
   default-plan) measurements are taken once, up front, on the calling
   domain; the returned closure is then safe to call from worker domains.
   [plan] selects the pass schedule the candidate heuristics run under; the
   baselines always use the default plan, so 1.0 means "the stock system"
   regardless of the plan being evaluated. *)
let fitness ?plan ~suite ~scenario ~platform ~goal =
  let baselines =
    List.map (fun bm -> (bm, Measure.run_default ~scenario ~platform bm)) suite
  in
  fun heuristic ->
    let scores =
      List.map
        (fun (bm, default) ->
          let t = Measure.run ?plan ~scenario ~platform ~heuristic bm in
          perf goal ~t ~default)
        baselines
    in
    Stats.geomean (Array.of_list scores)

(* Which exceptions a fitness evaluation may raise transiently — worth a
   bounded retry before the genome is penalized and quarantined.  Everything
   else is a bug and should fail fast (the guarded GA still isolates it to
   the one genome, but does not retry). *)
let transient_failure = function
  | Inltune_vm.Machine.Out_of_fuel | Inltune_vm.Machine.Trap _ -> true
  | Stack_overflow -> true
  | Inltune_resilience.Faultinject.Injected _ -> true
  | _ -> false

(* The "eval" fault-injection gate shared by the scalar and grid evaluation
   paths, so CI can make the k-th evaluation raise, burn its fuel budget, or
   return corrupt output and exercise retry/penalty/quarantine end to end. *)
let eval_fault_gate () =
  match Inltune_resilience.Faultinject.check "eval" with
  | Some Inltune_resilience.Faultinject.Raise ->
    raise (Inltune_resilience.Faultinject.Injected "eval")
  | Some Inltune_resilience.Faultinject.Hang ->
    (* A hung evaluation is one that burns its whole fuel budget. *)
    raise Inltune_vm.Machine.Out_of_fuel
  | Some Inltune_resilience.Faultinject.Corrupt -> true
  | None -> false

let genome_fitness ?plan ~suite ~scenario ~platform ~goal =
  let f = fitness ?plan ~suite ~scenario ~platform ~goal in
  fun g -> if eval_fault_gate () then Float.nan else f (Heuristic.of_array g)

(* Grid form of {!genome_fitness} for [Evolve.run ?grid]: the benchmark axis
   is explicit and each (genome, benchmark) cell is one pool work item.  The
   cell value and the combine are the exact float operations of the scalar
   path (per-benchmark [perf] in suite order, then geomean), so the two
   evaluation modes produce bit-identical fitness.  The fault gate moves to
   cell granularity — each simulation is one "eval" occurrence. *)
let genome_grid ?plan ~suite ~scenario ~platform ~goal () =
  let baselines =
    List.map (fun bm -> (bm, Measure.run_default ~scenario ~platform bm)) suite
  in
  {
    Inltune_ga.Evolve.grid_axis = Array.of_list baselines;
    grid_cell =
      (fun g (bm, default) ->
        if eval_fault_gate () then Float.nan
        else
          let t = Measure.run ?plan ~scenario ~platform ~heuristic:(Heuristic.of_array g) bm in
          perf goal ~t ~default);
    grid_combine = (fun _ cells -> Stats.geomean cells);
  }

(* Plan-genome mode: the genome is the five Table 1 genes followed by the
   plan genes ({!Params.plan_genome_spec}); heuristic and plan are decoded
   together per evaluation.  Baselines stay the default heuristic under the
   default plan, so 1.0 still means "the stock system" and plan-genome
   fitness values are directly comparable to heuristic-only ones. *)
let plan_genome_fitness ~suite ~scenario ~platform ~goal =
  let baselines =
    List.map (fun bm -> (bm, Measure.run_default ~scenario ~platform bm)) suite
  in
  fun g ->
    if eval_fault_gate () then Float.nan
    else
      let heuristic, plan = Params.split_plan_genome g in
      let scores =
        List.map
          (fun (bm, default) ->
            let t = Measure.run ~plan ~scenario ~platform ~heuristic bm in
            perf goal ~t ~default)
          baselines
      in
      Stats.geomean (Array.of_list scores)

let plan_genome_grid ~suite ~scenario ~platform ~goal =
  let baselines =
    List.map (fun bm -> (bm, Measure.run_default ~scenario ~platform bm)) suite
  in
  {
    Inltune_ga.Evolve.grid_axis = Array.of_list baselines;
    grid_cell =
      (fun g (bm, default) ->
        if eval_fault_gate () then Float.nan
        else
          let heuristic, plan = Params.split_plan_genome g in
          let t = Measure.run ~plan ~scenario ~platform ~heuristic bm in
          perf goal ~t ~default);
    grid_combine = (fun _ cells -> Stats.geomean cells);
  }

