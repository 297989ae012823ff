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

type histogram

(** Get or create the histogram registered under [name].  Buckets are
    powers of two: bucket 0 holds values < 1, bucket [i] holds
    [[2^(i-1), 2^i)]. *)
val histogram : string -> histogram

val observe : histogram -> float -> unit

type hist_snapshot = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : int array;
  (** Exact nearest-rank percentiles over every observation so far;
      [nan] when the histogram is empty. *)
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
