(* The global trace: one process-wide sink plus an enabled flag.

   Cost discipline: when no sink is installed, [enabled] is a single ref
   read, [emit] returns immediately, and [span] runs its thunk directly —
   instrumented code must build its field lists only after checking
   [enabled ()] (or behind [span]'s [post] callback) so a disabled trace
   costs nothing measurable.

   The flag and sink are shared across domains; sinks do their own locking.
   Installation/teardown is not meant to race with emission — install a sink
   up front (CLI flag or INLTUNE_TRACE), run, then exit. *)

let sink = ref Sink.null
let enabled_flag = ref false
let t0 = ref 0.0

let enabled () = !enabled_flag

let now () = Unix.gettimeofday ()

let emit_at ts name fields =
  if !enabled_flag then !sink.Sink.emit { Event.ts; name; fields }

let emit ?(fields = []) name = emit_at (now () -. !t0) name fields

(* Modules above this one in the library (e.g. Prof) register hooks that
   emit their own snapshot events whenever metrics are flushed.  Hooks run
   in registration order, which module initialization makes topological. *)
let flush_hooks : (unit -> unit) list ref = ref []
let add_flush_hook f = flush_hooks := !flush_hooks @ [ f ]

(* Flush accumulated counters/histograms into the trace so a summary sees
   them even though they are process-global rather than per-event. *)
let flush_metrics () =
  if !enabled_flag then begin
    List.iter
      (fun (name, v) ->
        emit "counter" ~fields:[ ("name", Event.Str name); ("value", Event.Int v) ])
      (Metric.counters_snapshot ());
    List.iter
      (fun (s : Metric.hist_snapshot) ->
        if s.Metric.hs_count > 0 then
          emit "histogram"
            ~fields:
              [
                ("name", Event.Str s.Metric.hs_name);
                ("count", Event.Int s.Metric.hs_count);
                ("sum", Event.Float s.Metric.hs_sum);
                ("min", Event.Float s.Metric.hs_min);
                ("max", Event.Float s.Metric.hs_max);
                ("mean", Event.Float s.Metric.hs_mean);
                ("p50", Event.Float s.Metric.hs_p50);
                ("p90", Event.Float s.Metric.hs_p90);
                ("p99", Event.Float s.Metric.hs_p99);
              ])
      (Metric.histograms_snapshot ());
    List.iter (fun f -> f ()) !flush_hooks
  end

let shutdown () =
  if !enabled_flag then begin
    flush_metrics ();
    let s = !sink in
    enabled_flag := false;
    sink := Sink.null;
    s.Sink.flush ();
    s.Sink.close ()
  end

let exit_hook = ref false

let install s =
  shutdown ();  (* close any previous sink, flushing its metrics *)
  sink := s;
  t0 := now ();
  enabled_flag := true;
  if not !exit_hook then begin
    exit_hook := true;
    at_exit shutdown
  end

let disable = shutdown

let to_file path = Result.map install (Sink.jsonl path)
let to_channel oc = install (Sink.text oc)

(* INLTUNE_TRACE=path writes JSONL to path; INLTUNE_TRACE=- streams
   human-readable events to stderr. *)
let init_from_env () =
  match Sys.getenv_opt "INLTUNE_TRACE" with
  | None | Some "" -> Ok ()
  | Some "-" -> Ok (to_channel stderr)
  | Some path -> to_file path

let flush () = !sink.Sink.flush ()

(* Time [f] and emit one event carrying [post result] plus the duration.
   The event's timestamp is the span's start.  Disabled: just [f ()]. *)
let span ?post name f =
  if not !enabled_flag then f ()
  else begin
    let start = now () in
    let r = f () in
    let dur_us = (now () -. start) *. 1e6 in
    let fields = match post with None -> [] | Some g -> g r in
    emit_at (start -. !t0) name (fields @ [ ("dur_us", Event.Float dur_us) ]);
    r
  end
