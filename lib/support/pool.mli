(** Persistent worker-domain pool with work-stealing.

    Intended for pure, CPU-bound work items (e.g. GA fitness evaluations).
    Work functions must not share mutable state across items.

    One set of worker domains lives for the whole process (or per explicit
    {!create}) and is fed batches through {!submit}/{!await}; indices are
    claimed one at a time off a shared atomic cursor, so finishing early on
    cheap items means stealing the next item of the grid rather than idling.
    {!map_result} is one batch on a shared default pool. *)

(** Recorded (never raised) for items of a batch whose [cancelled] hook
    tripped before they started.  Cancellation is cooperative: items
    already running finish normally; items not yet claimed are skipped
    without executing. *)
exception Cancelled

(** Number of participating domains used by default (bounded, >= 1): the
    submitting caller plus the default pool's workers. *)
val default_domains : unit -> int

(** [set_default_domains n] overrides {!default_domains} process-wide
    (clamped to >= 1).  The CLI's [--domains] flag calls this once at
    startup, before the shared pool exists, so every evaluation path —
    including ones that never thread an explicit [?domains] — is bounded
    uniformly. *)
val set_default_domains : int -> unit

(** Monotonic-ish process clock, in seconds: a high-water mark over the wall
    clock, so elapsed times measured across an NTP step can stall but never
    go negative.  The serve daemon's deadlines and latencies use it. *)
val now : unit -> float

(** {1 Persistent pool} *)

(** A pool of worker domains.  Thread-safe; any domain may submit. *)
type t

(** A submitted batch whose results can be collected with {!await}. *)
type 'a task

(** [create ?domains ()] spawns a pool with that many worker domains
    (default {!default_domains}).  The submitting caller additionally
    participates in every batch it {!await}s, so total parallelism is
    [domains + 1]. *)
val create : ?domains:int -> unit -> t

(** Number of worker domains the pool spawned. *)
val workers : t -> int

(** [submit pool f input] publishes a batch; workers start on it
    immediately, each claiming one index at a time.  [max_workers], when
    given, caps total participants — the submitting caller plus at most
    [max_workers - 1] pool workers ([max_workers = 1] means the batch runs
    entirely on the caller inside {!await}).  [priority] batches are claimed
    ahead of older bulk work (the serve daemon marks interactive requests so
    a long tuning batch cannot starve them).  [cancelled] is polled at every
    claim; once it returns [true], remaining unstarted items complete
    immediately as [Error Cancelled] — the cooperative-cancellation hook
    deadlines and shutdown drain are built on.  Each item's outcome is
    isolated exactly as in {!map_result}. *)
val submit :
  t ->
  ?max_workers:int ->
  ?priority:bool ->
  ?cancelled:(unit -> bool) ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn) result task

(** [await task] participates in the batch until no work is left, blocks for
    stragglers, and returns the results in input order.  Must be called
    exactly once per task to observe the results; safe even after
    {!shutdown} (the caller then evaluates every remaining item itself). *)
val await : 'a task -> 'a array

(** Stop and join the pool's workers.  Pending batches are drained first.
    Idempotent and safe to call concurrently from several domains: exactly
    one caller performs the join, every other caller blocks until it has
    completed, so returning always means no worker domain is still running.
    Must not be called from one of the pool's own workers.  Submitting to a
    stopped pool is allowed — its batches are simply evaluated by the caller
    inside {!await}. *)
val shutdown : t -> unit

(** The lazily created process-wide pool used by {!map_result} (shut down
    automatically at exit).  It holds [max 1 (default_domains () - 1)]
    workers, so with the submitting caller a batch has {!default_domains}
    participating domains. *)
val get_default : unit -> t

(** [set_counter_hook f] routes the pool's observability counters through
    [f name delta]: ["pool.tasks_stolen"] (grid indices executed by a
    non-submitting worker), ["pool.busy_ns"] (wall time workers spent
    running stolen items), ["pool.idle_ns"] (wall time workers spent parked
    with nothing to claim while a batch they joined was still unfinished —
    starvation inside a batch; time parked between batches does not count)
    and ["pool.tasks_cancelled"] (indices resolved as {!Cancelled} without
    running).  [lib/support] cannot depend on the metrics registry, so
    [Inltune_obs] installs the bridge at load time. *)
val set_counter_hook : (string -> int -> unit) -> unit

(** [map_result ?domains f a] evaluates every item and returns its outcome
    in input order: [Ok (f a.(i))], or [Error e] if that item raised.  One
    bad item never aborts the batch — this is the fault-isolation primitive
    the GA's guarded evaluation uses.  [domains] caps total participating
    domains; [Some 1] runs strictly sequentially on the caller. *)
val map_result : ?domains:int -> ('a -> 'b) -> 'a array -> ('b, exn) result array
