open Inltune_jir
open Inltune_opt
open Inltune_vm

(** Decision-signature fitness cache.

    Before paying for a full VM simulation, compute a cheap semantic key for
    the (program, scenario, platform, heuristic) query — a signature of the
    inline/no-inline verdicts the Fig. 3/4 tests produce — and reuse the
    previously measured {!Inltune_vm.Runner.measurement} whenever it
    matches.  Distinct genomes with identical decisions (the paper's plateau
    observation) then cost one simulation instead of many; caching is
    bit-transparent because the compiled code is a function of the decision
    vector alone.

    Under [Opt] the signature hashes the exact per-method decision plans
    ({!Inltune_opt.Engine.walk} over call-site tables built once per
    program, the constant-propagated methods as roots — the maximal sound
    merge); under [Adapt]/[Ladder], where decisions depend on
    the runtime profile, it projects the heuristic's thresholds onto the
    program's distinct method sizes, which is sufficient for identical
    verdicts at every reachable query.

    Two tiers: a process-wide mutex-guarded table (on by default), plus an
    optional append-only JSONL file ({!set_file}; CLI [--fitness-cache])
    whose entries are content-keyed — program digest × scenario × platform ×
    iterations × signature — so they survive restarts and compose with GA
    checkpoint/resume.  Under the exact [Opt] walk, a miss also reuses
    individual optimizing compiles through {!Inltune_vm.Codecache}
    ({!lookup_or_simulate}); that in-process tier follows this module's
    {!set_enabled} and {!clear}.  With the profiler on, {!lookup_or_measure}
    and {!lookup_or_simulate} time the signature in a
    ["fitness.signature"] span.  Counters: ["fitness.sig_hits"],
    ["fitness.sig_misses"], ["fitness.unique_plans"],
    ["fitness.cache_corrupt"] (skipped JSONL lines on load) and — with a
    tenant hook installed — ["fitness.cross_tenant_hits"]. *)

(** Hex digest of the program's canonical text form; memoized per program
    value.  Part of every cache key, so signatures can never collide across
    programs. *)
val program_digest : Ir.program -> string

(** The decision signature alone (no program digest or platform).
    ["off"] when [inline_enabled] is false or the plan's inline item is
    disabled — every heuristic then compiles identically.  Under [Opt] with
    a plan whose pre-inline schedule differs from the historical one
    ({!Inltune_opt.Plan.walk_compatible} is false) the signature falls back
    to the raw heuristic parameters: still sound, just no cross-genome
    merging. *)
val signature :
  scenario:Machine.scenario ->
  heuristic:Heuristic.t ->
  inline_enabled:bool ->
  plan:Plan.t ->
  Ir.program ->
  string

(** The full content-addressed cache key.  Non-default plans contribute
    their content digest, so their measurements never alias the default
    plan's. *)
val key :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  heuristic:Heuristic.t ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  Ir.program ->
  string

(** Per-method {!Inltune_vm.Codecache} keys for the query's optimizing
    compiles, indexed by method id, or [None] outside the exact-walk case.
    The exact-walk case is the [Opt] scenario with the decider-driven
    [inline] item as the plan's first walkable inliner, i.e. exactly when
    {!signature} is the ["w:"] walk.  Each key is program digest × platform
    × plan tag × method id × that method's {!Inltune_opt.Engine.walk}, which
    determines the method's optimized code (the ["w:"] argument applied per
    method). *)
val code_keys :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  heuristic:Heuristic.t ->
  inline_enabled:bool ->
  plan:Plan.t ->
  Ir.program ->
  string array option

val enabled : unit -> bool

(** Toggle the cache (default on).  Disabled, {!lookup_or_measure} always
    simulates and the table is neither consulted nor extended, and
    {!lookup_or_simulate} passes no compile-cache keys. *)
val set_enabled : bool -> unit

(** Forget every in-memory measurement and tenant-ownership record, and
    empty {!Inltune_vm.Codecache.global} (per-program signature data and
    the attached file are kept).  Tests and the off/on benchmark use
    this. *)
val clear : unit -> unit

(** Number of measurements currently in the in-memory table. *)
val size : unit -> int

(** [set_tenant_hook f] attributes cache traffic to tenants: [f ()] names
    the tenant the calling thread is currently working for (or [None] for
    anonymous work — e.g. pool worker domains).  Each key remembers the
    tenant that first paid for its simulation; a later hit by a *different*
    tenant bumps ["fitness.cross_tenant_hits"].  The default hook returns
    [None], keeping the whole mechanism inert outside the serve daemon. *)
val set_tenant_hook : (unit -> string option) -> unit

(** [set_file (Some path)] attaches the on-disk tier: existing entries are
    loaded, and every fresh measurement is appended as one JSONL line.
    Corrupt or truncated lines are skipped — never an abort — counted in
    ["fitness.cache_corrupt"], with a single summary warning per file on
    stderr carrying the first bad line's position and cause.  [set_file
    None] detaches. *)
val set_file : string option -> unit

(** Is the query's measurement already cached?  (No counters are bumped;
    [Measure.run_default] uses this to keep its memo counters truthful.) *)
val mem :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  heuristic:Heuristic.t ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  Ir.program ->
  bool

(** [lookup_or_measure ... ~program simulate] returns the cached measurement
    for the query's key, or runs [simulate] (outside the cache lock) and
    stores — and, when a file is attached, appends — its result.  When the
    cache is disabled this is just [simulate ()]. *)
val lookup_or_measure :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  heuristic:Heuristic.t ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  program:Ir.program ->
  (unit -> Runner.measurement) ->
  Runner.measurement

(** {!lookup_or_measure} whose simulation receives the query's
    {!code_keys} ([None] when the cache is disabled or outside the
    exact-walk case), so a miss can reuse the optimizing compiles earlier
    queries left in {!Inltune_vm.Codecache.global}.  The keys are derived
    from the same walk as the signature. *)
val lookup_or_simulate :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  heuristic:Heuristic.t ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  program:Ir.program ->
  (code_keys:string array option -> Runner.measurement) ->
  Runner.measurement

(** Decision signature of a first-class policy.  [static] asserts the policy
    reads nothing but the program and the site record — never the VM's live
    profile; under [Opt] with a walk-compatible plan that makes
    {!Inltune_opt.Engine.walk} over the constprop'd methods exact, so
    the signature shares the heuristic walk's "w:" namespace and cache hits
    transfer across structurally different policies (and heuristics) that
    make identical decisions.  Everywhere else the signature is ["g:"]
    followed by [digest] — the policy artifact's content digest (sound, no
    cross-policy merging). *)
val policy_signature :
  scenario:Machine.scenario ->
  policy:Policy.t ->
  digest:string ->
  static:bool ->
  inline_enabled:bool ->
  plan:Plan.t ->
  Ir.program ->
  string

(** Full content-addressed key for a policy query. *)
val policy_key :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  policy:Policy.t ->
  digest:string ->
  static:bool ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  Ir.program ->
  string

(** {!lookup_or_measure} keyed by {!policy_signature}: same table, counters,
    and on-disk tier, so policy and heuristic measurements amortize each
    other whenever their decision signatures coincide. *)
val lookup_or_measure_policy :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  policy:Policy.t ->
  digest:string ->
  static:bool ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  program:Ir.program ->
  (unit -> Runner.measurement) ->
  Runner.measurement
