(** Event sinks.  All provided sinks are safe to call from multiple domains
    concurrently (GA fitness evaluation emits from worker domains). *)

type t = {
  emit : Event.t -> unit;
  flush : unit -> unit;
  close : unit -> unit;
}

(** Discards everything. *)
val null : t

(** Human-readable lines, flushed per event.  Does not close the channel. *)
val text : out_channel -> t

(** One JSON object per line, appended to [path] (append mode lets several
    commands accumulate into one trace file) through
    {!Inltune_support.Textfile.open_append}.  Buffered until close. *)
val jsonl : string -> (t, string) result

(** In-memory capture for tests: the sink and the vector it fills. *)
val memory : unit -> t * Event.t Inltune_support.Vec.t
