open Inltune_jir
open Inltune_opt
open Inltune_vm

(** Decision-signature fitness cache.

    Before paying for a full VM simulation, compute a cheap semantic key for
    the (program, scenario, platform, decider) query — a signature of the
    inline/no-inline verdicts the decider produces — and reuse the
    previously measured {!Inltune_vm.Runner.measurement} whenever it
    matches.  Distinct genomes with identical decisions (the paper's plateau
    observation) then cost one simulation instead of many; caching is
    bit-transparent because the compiled code is a function of the decision
    vector alone.

    Under [Opt] the signature hashes the exact per-method decision plans of
    the heuristic or of a static policy ({!Inltune_opt.Engine.walk} over
    call-site tables built once per program, the constant-propagated
    methods as roots — the maximal sound merge); under [Adapt]/[Ladder],
    where decisions depend on the runtime profile, it projects the
    heuristic's thresholds onto the program's distinct method sizes, which
    is sufficient for identical verdicts at every reachable query.  Policies
    with no walk or projection are keyed by their content digest.  Behind
    that projection, {!Measure.run_decider} answers an [Adapt]/[Ladder]
    miss from the exact {!Trajcache} when it can, and stores the answer
    here like a simulation's.

    Two tiers: a process-wide mutex-guarded table (on by default), plus an
    optional append-only JSONL file ({!set_file}; CLI [--fitness-cache])
    whose entries are content-keyed — program digest × scenario × platform ×
    iterations × signature — so they survive restarts and compose with GA
    checkpoint/resume.  Under the exact [Opt] walk, a miss also reuses
    individual optimizing compiles through {!Inltune_vm.Codecache}
    ({!lookup_or_simulate}); that in-process tier follows this module's
    {!set_enabled} and {!clear}.  With the profiler on, {!lookup_or_simulate}
    times the signature in a ["fitness.signature"] span.  Counters:
    ["fitness.sig_hits"], ["fitness.sig_misses"], ["fitness.unique_plans"],
    ["fitness.cache_corrupt"] (skipped JSONL lines on load) and — with a
    tenant hook installed — ["fitness.cross_tenant_hits"]. *)

(** What decides each call site of a measured program.  A policy is built
    per program (feature contexts are per-program facts), and its [digest]
    names its content: two policies with equal digests must decide alike. *)
type decider =
  | Heuristic of Heuristic.t  (** the paper's Fig. 3/4 threshold heuristic *)
  | Static of { digest : string; policy : Ir.program -> Policy.t }
      (** a policy whose verdicts read only the program and the site record
          (a GP tree): under [Opt] its decision walk is exact, so it shares
          the heuristic walk's ["w:"] signatures and compile-cache keys *)
  | Profiled of { digest : string; factory : Ir.program -> Profile.t -> Policy.t }
      (** a policy rebuilt against the VM's live profile at every compile
          (a stored CART tree); keyed by [digest] in every scenario *)

(** Hex digest of the program's canonical text form, computed once per
    program value ({!Inltune_jir.Facts.digest}).  Part of every cache key,
    so signatures can never collide across programs. *)
val program_digest : Ir.program -> string

(** The heuristic's decision signature alone (no program digest or
    platform).
    ["off"] when no inliner runs ([inline_enabled] false disables the
    [inline] item), and ["n:static"] when only strategy inliners run —
    every heuristic then compiles identically under one plan tag.  Under
    [Opt] with a plan whose pre-inline schedule differs from the historical
    one ({!Inltune_opt.Plan.walk_compatible} is false) the signature falls
    back to the raw heuristic parameters: still sound, just no cross-genome
    merging. *)
val signature :
  scenario:Machine.scenario ->
  heuristic:Heuristic.t ->
  inline_enabled:bool ->
  plan:Plan.t ->
  Ir.program ->
  string

(** The full content-addressed cache key of a decider query.  Non-default
    plans contribute their content digest, so their measurements never alias
    the default plan's. *)
val decider_key :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  decider:decider ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  Ir.program ->
  string

(** {!decider_key} of [Heuristic heuristic]. *)
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

(** Toggle the cache (default on).  Disabled, {!lookup_or_simulate} always
    simulates and the table is neither consulted nor extended, and
    {!lookup_or_simulate} passes no compile-cache keys; {!Measure} then
    bypasses {!Trajcache} too. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Forget every in-memory measurement and tenant-ownership record, and
    empty {!Inltune_vm.Codecache.global} and every {!Trajcache} trie
    (per-program signature data and the attached file are kept).  Tests
    and the off/on benchmark use this. *)
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
    loaded, and every fresh measurement is appended as one JSONL line,
    flushed at once, through one {!Inltune_support.Textfile.open_append}
    channel that the next [set_file] closes.  Lines are written outside the
    table's lock, and only by the store that inserted the key, so the file
    holds each key once.  Corrupt or truncated lines are skipped — never an
    abort — counted in ["fitness.cache_corrupt"], with a single summary
    warning per file on stderr carrying the first bad line's position and
    cause.  [set_file None] detaches.
    @raise Failure ["<path>: <reason>"], detached, on a file error. *)
val set_file : string option -> unit

(** Is the query's measurement already cached?  No counters are bumped: the
    serve daemon's degraded mode asks this before answering from the cache
    without simulating. *)
val mem :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  heuristic:Heuristic.t ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  Ir.program ->
  bool

(** [lookup_or_simulate ... ~program simulate] returns the cached
    measurement for the query's key, or runs [simulate] (outside the cache
    lock) and stores — and, when a file is attached, appends — its result.
    The simulation receives the query's per-method compile-cache keys
    ([None] when the cache is disabled or outside the exact-walk case), so a
    miss can reuse the optimizing compiles earlier queries left in
    {!Inltune_vm.Codecache.global}; they come from the same walk as the
    signature.  When the cache is disabled this is just
    [simulate ~code_keys:None]. *)
val lookup_or_simulate :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  decider:decider ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  program:Ir.program ->
  (code_keys:string array option -> Runner.measurement) ->
  Runner.measurement

(** {!lookup_or_simulate} of [Heuristic heuristic] whose simulation ignores
    the compile-cache keys. *)
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
