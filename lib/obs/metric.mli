(** Process-wide named counters (lock-free) and histograms (mutex-guarded).
    Values accumulate for the life of the process and are flushed into the
    trace as "counter"/"histogram" events when the sink closes. *)

type counter

(** Get or create the counter registered under [name]. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** A counter bound by name once, for hot paths.  It looks the name up in
    the registry on first use and again only after {!reset_all}, so a bump
    takes no lock; a handle bound before {!reset_all} counts into the fresh
    registry after it.  Binding a handle registers nothing. *)
type handle

val handle : string -> handle
val bump : handle -> unit
val bump_by : handle -> int -> unit

(** A bounded histogram: exact count, sum, min and max, plus one count per
    bin.  A bin holds the values that share a sign, an exponent and the top
    7 mantissa bits, so memory grows with the spread of the values (128
    bins per octave; every 1 µs step from 1 µs to 100 ms fits in 1,345
    bins), never with their number. *)
type histogram

(** Get or create the histogram registered under [name]. *)
val histogram : string -> histogram

(** A histogram outside the registry: no snapshot or trace flush sees it.
    The profiler keeps one per span path. *)
val unregistered_histogram : string -> histogram

val observe : histogram -> float -> unit

type hist_snapshot = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_mean : float;
  (** Nearest-rank percentiles that report the floor of the rank's bin (its
      value truncated toward zero to 8 significant bits), clamped into
      [[hs_min, hs_max]]: exact for values with at most 8 significant bits,
      otherwise at most 2{^-7} of the value low.  [nan] (like [hs_mean])
      when the histogram is empty. *)
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
}

val snapshot : histogram -> hist_snapshot

(** Sorted by name. *)
val counters_snapshot : unit -> (string * int) list

val histograms_snapshot : unit -> hist_snapshot list

(** Tests only: forget every registered metric.  Handles re-resolve on
    their next bump. *)
val reset_all : unit -> unit
