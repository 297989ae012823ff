(** Aggregate a JSONL trace into paper-style tables: inlining decisions by
    reason, optimizer pass totals, compile-time breakdown per tier, VM
    measurements per program, GA fitness per generation, counters. *)

type record = { ts : float; ev : string; json : Json.t }

val of_line : string -> (record, string) result

(** Records plus the count of malformed lines (skipped, not fatal). *)
val of_lines : string list -> record list * int

(** {!of_lines} of a trace file, streamed. *)
val load_file : string -> (record list * int, string) result

(** reason name, accepted?, count — sorted by count descending. *)
val inline_reasons : record list -> (string * bool * int) list

(** (generation, best, mean, evaluations) in trace order. *)
val ga_generations : record list -> (int * float * float * int) list

(** tier -> (compiles, recompiles, cycles, code bytes), sorted by tier. *)
val compile_tiers : record list -> (string * (int * int * int * int)) list

(** pass -> (runs, transforms, total us, summed size_out - size_in, inlined
    call sites), sorted by total time.  [inlined] attributes inlining to the
    pass that performed it, so runs mixing strategies (inline_leaves /
    inline_hot / inline / inline_region) break down per strategy.  Spans
    without size or inlining fields (older traces) contribute 0. *)
val pass_totals : record list -> (string * (int * int * float * int * int)) list

(** counter name -> last reported value. *)
val counter_values : record list -> (string * int) list

(** Histogram snapshots from ["histogram"] events, sorted by name; the last
    snapshot of a name wins.  Fields missing from older traces come back as
    [nan]. *)
val histogram_values : record list -> Metric.hist_snapshot list

(** Profile nodes from flushed ["prof.node"] events, in tree order; render
    them with {!Prof.table} and {!Prof.folded}.  Fields missing from older
    traces come back as [nan]. *)
val prof_nodes : record list -> Prof.node_snapshot list

(** Whether any record is a real trace event (not a "counter"/"histogram"
    snapshot); false for empty or counter-only traces. *)
val has_events : record list -> bool

(** The heuristic parameter (paper Table 1) governing a decision reason. *)
val parameter_of_reason : string -> string

(** Every table with data, in report order. *)
val tables : record list -> Inltune_support.Table.t list
