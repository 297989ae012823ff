(** The tuning daemon.

    One process owns the worker-domain pool, the fitness cache, and the
    measurement memo; many clients multiplex measure/tune requests onto them
    over the {!Proto} line protocol, so tenants amortize each other's
    simulations.  The daemon degrades instead of failing: saturation
    produces explicit backpressure replies, a request that keeps failing
    quarantines its genome (never the server), sustained overload switches
    to cache-only answers and Jikes-default heuristics, and SIGTERM drains
    in-flight work before exiting.

    Counters: ["serve.requests"], ["serve.ok"], ["serve.errors"],
    ["serve.shed"], ["serve.quota_denied"], ["serve.timeouts"],
    ["serve.failed"], ["serve.quarantine_hits"],
    ["serve.genomes_quarantined"], ["serve.duplicates"],
    ["serve.degraded_replies"], ["serve.degraded_entered"],
    ["serve.degraded_exited"], ["serve.shutdown_replies"],
    ["serve.connections"]; histogram ["serve.latency_ms"].
    Fault site ["serve"]: [INLTUNE_FAULTS="serve:raise@K"] makes the daemon's
    K-th gate check abort that request attempt, which is retried once; an
    injected [hang] or [corrupt] fails the request on its first attempt. *)

type config = {
  permits : int;             (** concurrently executing requests (>= 1) *)
  queue_cap : int;           (** admission queue bound; beyond it, shed *)
  quota_rate : float;        (** per-tenant requests/second; <= 0 = unlimited *)
  quota_burst : float;       (** per-tenant burst size *)
  default_deadline_ms : int; (** applied when a request carries none; 0 = none *)
  degrade_after : int;       (** pressure events in the window that trip degraded mode *)
  degrade_window_s : float;
  cooldown_s : float;        (** quiet time required to leave degraded mode *)
  drain_timeout_s : float;   (** SIGTERM drain bound *)
  reply_cache_cap : int;     (** idempotent-reply cache entries *)
  quiet : bool;              (** suppress stderr lifecycle notes *)
}

val default_config : config

(** A running daemon (accept loop + housekeeping on background threads). *)
type t

(** Bind the endpoint and start serving.  Installs the {!Inltune_core.Fitcache}
    tenant hook (cross-tenant hit accounting).  No signal handlers are
    installed — use {!run} for that, or call {!stop} yourself. *)
val start : ?config:config -> Proto.endpoint -> t

(** Initiate shutdown and drain: queued waiters get ["shutdown"] replies,
    in-flight work is cut short via its cancellation hooks, connections
    close, the listener and any Unix socket path are removed.  Idempotent. *)
val stop : t -> unit

(** Is the daemon currently in degraded (cache-only) mode? *)
val degraded_mode : t -> bool

(** Foreground entry point for the CLI: serve until SIGTERM/SIGINT, then
    drain and return. *)
val run : ?config:config -> Proto.endpoint -> unit
