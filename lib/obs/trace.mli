(** The process-global trace.  With no sink installed, {!enabled} is one ref
    read and {!emit}/{!span} cost nothing measurable — instrumented code must
    build field lists only after checking [enabled ()] (or inside [span]'s
    [post] callback).

    The flag and sink are shared across domains (sinks lock internally).
    Install a sink up front — CLI flag or [INLTUNE_TRACE] — then run; sink
    installation is not meant to race with emission. *)

val enabled : unit -> bool

(** Wall-clock seconds ([Unix.gettimeofday]). *)
val now : unit -> float

(** Install a sink, closing (and metric-flushing) any previous one.  Resets
    the trace epoch; registers an [at_exit] hook that flushes and closes. *)
val install : Sink.t -> unit

(** Flush metrics into the trace, close the sink, return to disabled. *)
val disable : unit -> unit

(** [install (Sink.jsonl path)]; on [Error] the current sink stays. *)
val to_file : string -> (unit, string) result

(** [install (Sink.text oc)]. *)
val to_channel : out_channel -> unit

(** [INLTUNE_TRACE=path] writes JSONL to [path]; [INLTUNE_TRACE=-] streams
    text to stderr; unset/empty leaves tracing disabled. *)
val init_from_env : unit -> (unit, string) result

val emit : ?fields:(string * Event.value) list -> string -> unit

(** Emit accumulated counters/histograms as "counter"/"histogram" events
    (also done automatically when the sink closes). *)
val flush_metrics : unit -> unit

(** Register a hook run at every {!flush_metrics} (with the trace still
    enabled), letting higher modules emit their own snapshot events — e.g.
    {!Prof}'s ["prof.node"] records.  Hooks run in registration order. *)
val add_flush_hook : (unit -> unit) -> unit

val flush : unit -> unit

(** [span name f] times [f] and emits one event stamped at the span's start,
    with [post result] fields plus ["dur_us"].  Disabled: just [f ()]. *)
val span : ?post:('a -> (string * Event.value) list) -> string -> (unit -> 'a) -> 'a
