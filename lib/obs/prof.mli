(** Hierarchical self-profiler built on the span/metric backbone.

    Spans nest per domain: [span "fitness.eval" (fun () -> span "vm.compile"
    ...)] attributes wall time to the path ["fitness.eval;vm.compile"], and a
    snapshot reports both cumulative and {e self} time (cumulative minus the
    time of direct children) plus p50/p90/p99 of the per-call durations.

    Cost discipline matches {!Trace}: when disabled (the default) {!span} is
    one [Atomic.get] and a direct call of the thunk — no clock reads, no
    allocation — so leaving instrumentation in hot paths is free.  Profiling
    must never feed back into measurements: everything here is wall-clock
    bookkeeping on the side, and the simulator's cycle counts are unaffected
    whether profiling is on or off.

    Each node keeps its durations in a bounded {!Metric.histogram} (an
    unregistered one): calls, total and max are exact, and memory grows
    with the spread of the durations, not with the number of calls.

    Paths use [';'] as the separator, which makes {!folded} output directly
    consumable by [flamegraph.pl] / inferno.  When a trace sink closes, every
    node is flushed as a ["prof.node"] event via a {!Trace.add_flush_hook}
    registered at module initialization; [trace-summary] rebuilds
    {!node_snapshot}s from those events and renders them with {!table} and
    {!folded}. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** [span label f] runs [f], attributing its wall time to [label] nested
    under the calling domain's current span path.  Exception-safe: the path
    is restored even if [f] raises (the aborted span is not recorded).
    [on_time dt] is invoked with the duration when profiling is enabled —
    a side channel for callers that want the same clock reading (e.g. the
    VM accumulating compile wall time) without a second [gettimeofday].
    Disabled: exactly [f ()]. *)
val span : ?on_time:(float -> unit) -> string -> (unit -> 'a) -> 'a

(** One profile node.  Times are microseconds, the unit of the ["prof.node"]
    trace event, so neither the live nor the trace path converts a value
    twice. *)
type node_snapshot = {
  n_path : string;  (** semicolon-joined span path, e.g. ["fitness.eval;vm.compile"] *)
  n_label : string;  (** last component of the path *)
  n_depth : int;  (** 0 for root spans *)
  n_calls : int;
  n_total_us : float;  (** cumulative wall time *)
  n_self_us : float;  (** cumulative minus direct children, clamped at 0 *)
  n_p50_us : float;
      (** nearest-rank percentiles of per-call durations, as
          {!Metric.hist_snapshot}'s: exact up to 8 significant bits,
          otherwise at most 2{^-7} low *)
  n_p90_us : float;
  n_p99_us : float;
  n_max_us : float;
}

(** All nodes in path order (parents before their children). *)
val snapshot : unit -> node_snapshot list

(** Folded-stack lines (["path;to;span <self-µs>"]) for flamegraph.pl /
    inferno.  Nodes whose self time rounds to 0 µs, or is not finite, are
    omitted. *)
val folded : node_snapshot list -> string list

(** The indented profile table, ["profile (wall time, self vs.
    cumulative)"]; a non-finite cell prints as ["-"]. *)
val table : node_snapshot list -> Inltune_support.Table.t

(** Print the table of a fresh {!snapshot} to [oc]; a one-liner when nothing
    was recorded. *)
val report : out_channel -> unit

(** Arrange for {!report} on stderr at process exit (idempotent). *)
val report_at_exit : unit -> unit

(** Forget all recorded nodes (the enabled flag is untouched). *)
val reset : unit -> unit

(** [INLTUNE_PROFILE=1] (any non-empty value except ["0"]) enables profiling
    and schedules an exit report on stderr. *)
val init_from_env : unit -> unit
