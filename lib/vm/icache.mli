(** Direct-mapped instruction-cache simulator.

    The representation is exposed so the flat interpreter can fold the
    per-instruction tag probe into its dispatch loop ({!access} is one call
    per simulated instruction, which dominates its cost).  Treat the fields
    as read-only outside this module and [Machine]. *)

type t = {
  tags : int array;  (** -1 = invalid *)
  first : int array;
      (** the line of each index's first fill; -1 = never filled.  A
          miss that replaces an invalid tag must record its line here. *)
  line_bits : int;
  index_mask : int;
  mutable accesses : int;
  mutable misses : int;
}

(** [create ~bytes ~line_bytes] — both must make the line count a power of
    two. *)
val create : bytes:int -> line_bytes:int -> t

(** [access t addr] touches the line containing [addr]; true means miss. *)
val access : t -> int -> bool

val miss_rate : t -> float
val reset_counters : t -> unit
val accesses : t -> int
val misses : t -> int

(** [repeat_misses t] is how many misses a second pass over the same address
    trace would take, for a cache whose accesses so far are exactly one pass
    over that trace from a cold cache.  Such a pass ends in the state the
    first one left, so every further pass misses the same number of times:
    [misses t - |touched indices| + |{i : first.(i) <> tags.(i)}|]. *)
val repeat_misses : t -> int
