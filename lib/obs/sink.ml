(* Where events go.  A sink is three closures so new backends need no
   variant-type change; all provided sinks are safe to call from multiple
   domains concurrently (GA fitness evaluation emits from worker domains). *)

module Vec = Inltune_support.Vec
module Textfile = Inltune_support.Textfile

type t = {
  emit : Event.t -> unit;
  flush : unit -> unit;
  close : unit -> unit;
}

let null = { emit = ignore; flush = ignore; close = ignore }

(* Human-readable lines, flushed eagerly — meant for a person watching
   stderr, not for volume. *)
let text oc =
  let mu = Mutex.create () in
  {
    emit =
      (fun e ->
        Mutex.protect mu (fun () ->
            output_string oc (Event.to_text e);
            output_char oc '\n';
            flush oc));
    flush = (fun () -> flush oc);
    close = (fun () -> flush oc);  (* the channel (stderr) is not ours to close *)
  }

(* One JSON object per line, appended to [path].  Append mode lets several
   commands accumulate into one trace file (e.g. a run followed by a GA
   tune, summarized together).  Buffered; flushed on close.  A run killed
   mid-flush leaves a torn last line; [Textfile.open_append] ends it, so
   the next run's first event is a line of its own. *)
let jsonl path =
  let ( let+ ) r f = Result.map f r in
  let+ oc = Textfile.open_append path in
  let mu = Mutex.create () in
  let closed = ref false in
  {
    emit =
      (fun e ->
        Mutex.protect mu (fun () ->
            if not !closed then begin
              output_string oc (Event.to_json e);
              output_char oc '\n'
            end));
    flush = (fun () -> Mutex.protect mu (fun () -> if not !closed then flush oc));
    close =
      (fun () ->
        Mutex.protect mu (fun () ->
            if not !closed then begin
              closed := true;
              close_out oc
            end));
  }

(* In-memory capture for tests: returns the sink and the vector it fills. *)
let memory () =
  let mu = Mutex.create () in
  let events : Event.t Vec.t = Vec.create () in
  let sink =
    {
      emit = (fun e -> Mutex.protect mu (fun () -> Vec.push events e));
      flush = ignore;
      close = ignore;
    }
  in
  (sink, events)
