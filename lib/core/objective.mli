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

(** Suite-level fitness: geometric mean of {!perf} over the suite.  Baseline
    measurements are taken eagerly on the calling domain; the returned
    closure is safe to call from worker domains.  [plan] selects the pass
    schedule candidates run under (default {!Inltune_opt.Plan.default});
    baselines always use the default plan, so 1.0 means "the stock
    system". *)
val fitness :
  ?plan:Plan.t ->
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  Heuristic.t -> float

(** Whether an exception is a transient evaluation failure — fuel
    exhaustion, a VM trap, a stack overflow, or an injected fault — worth a
    bounded retry before the genome is penalized. *)
val transient_failure : exn -> bool

(** The ["eval"] fault-injection gate every fitness-evaluation path checks
    (see {!Inltune_resilience.Faultinject}): raises on an injected [Raise],
    burns the fuel budget on [Hang], and returns [true] — evaluate to NaN —
    on [Corrupt].  Exposed so alternative searches over the same simulations
    (the GP policy search) share one fault boundary with the GA. *)
val eval_fault_gate : unit -> bool

(** {!fitness} composed with the genome decoding, for scalar searches over
    genomes (local search, random search, the bench ablations).  Each call
    checks the ["eval"] fault-injection site (see
    {!Inltune_resilience.Faultinject}), so failure paths are testable. *)
val genome_fitness :
  ?plan:Plan.t ->
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  int array -> float

(** Grid form of {!genome_fitness} for [Evolve.run ?grid]: the suite becomes
    the explicit benchmark axis and every (genome, benchmark) cell is one
    independent pool work item, so unique simulations saturate all domains.
    Cell and combine use the exact float operations of the scalar path —
    the two evaluation modes are bit-identical.  The ["eval"] fault gate is
    checked per cell (one occurrence per simulation).  Baselines are
    measured eagerly on the calling domain. *)
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
    {!genome_grid} to {!genome_fitness}: bit-identical combine, per-cell
    fault gate, eager baselines. *)
val plan_genome_grid :
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  (int array, Inltune_workloads.Suites.benchmark * Measure.times) Inltune_ga.Evolve.grid
