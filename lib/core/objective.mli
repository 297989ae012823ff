open Inltune_opt

(** The paper's fitness functions (Section 3.1), normalized so the default
    heuristic scores exactly 1.0 per benchmark. *)

type goal =
  | Running  (** minimize running time (later iterations, no compilation) *)
  | Total    (** minimize total time (first iteration, incl. compilation) *)
  | Balance  (** minimize [factor * Running(s) + Total(s)],
                 [factor = Total(s_def) / Running(s_def)] *)

val goal_name : goal -> string
val goal_of_string : string -> goal

(** Per-benchmark metric, as a ratio to the default heuristic's value. *)
val perf : goal -> t:Measure.times -> default:Measure.times -> float

(** The one fitness-grid builder.  Baselines (the default heuristic under
    the default plan, so 1.0 means "the stock system") are measured eagerly
    on the calling domain, [iterations] VM iterations each like every
    cell.  A cell decodes the genome to the plan it runs under and its
    decider, measures the benchmark through {!Measure.run_decider}, and
    scores {!perf} against the baseline; each cell is one independent pool
    work item and checks the ["eval"] fault-injection site once (see
    {!Inltune_resilience.Faultinject}): an injected [Raise] raises, [Hang]
    burns the fuel budget, and [Corrupt] scores the cell NaN.  [combine]
    folds a genome's cells, in suite order, into its fitness. *)
val grid :
  iterations:int ->
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  combine:('g -> float array -> float) ->
  ('g -> Plan.t * Fitcache.decider) ->
  ('g, Inltune_workloads.Suites.benchmark * Measure.times) Inltune_ga.Evolve.grid

(** Suite-level fitness of a heuristic: the geometric mean of {!perf} over
    the suite — the cells of {!grid} (3 iterations), folded in suite order
    with no fault gate.  Baselines are measured eagerly on the calling
    domain; the returned closure is safe to call from worker domains.
    [plan] (default {!Inltune_opt.Plan.default}) is the pass schedule
    candidates run under. *)
val fitness :
  ?plan:Plan.t ->
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  Heuristic.t -> float

(** [fault_gate site] checks the fault-injection [site] once (see
    {!Inltune_resilience.Faultinject}): an armed [Raise] raises
    [Faultinject.Injected site], the one failure the sandbox retries; [Hang]
    raises [Machine.Out_of_fuel], as a run that burns its whole fuel budget
    would; [Corrupt] returns [true], and the caller reports a NaN result.
    Otherwise [false].  The evaluation paths here gate site ["eval"]; the
    serve daemon gates ["serve"] once per request attempt. *)
val fault_gate : string -> bool

(** {!fitness} composed with the genome decoding, for scalar searches over
    genomes (local search, random search, the bench ablations).  Each call
    checks the ["eval"] fault-injection site once (see
    {!Inltune_resilience.Faultinject}), so failure paths are testable. *)
val genome_fitness :
  ?plan:Plan.t ->
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  int array -> float

(** Grid form of {!genome_fitness} for [Evolve.run ?grid]: {!grid} with the
    geomean combine, so the two evaluation modes are bit-identical; the
    fault gate moves to cell granularity (one occurrence per simulation). *)
val genome_grid :
  ?plan:Plan.t ->
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  unit ->
  (int array, Inltune_workloads.Suites.benchmark * Measure.times) Inltune_ga.Evolve.grid

(** Plan-genome fitness: the genome is the five Table 1 genes followed by
    the plan genes ({!Params.plan_genome_spec}); heuristic and plan are
    decoded together per evaluation ({!Params.split_plan_genome}).
    Baselines stay the default heuristic under the default plan, so values
    are directly comparable to {!genome_fitness}'s.  Checks the ["eval"]
    fault gate like {!genome_fitness}. *)
val plan_genome_fitness :
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  int array -> float

(** Grid form of {!plan_genome_fitness} — same relationship as
    {!genome_grid} to {!genome_fitness}. *)
val plan_genome_grid :
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  (int array, Inltune_workloads.Suites.benchmark * Measure.times) Inltune_ga.Evolve.grid
