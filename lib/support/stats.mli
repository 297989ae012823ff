(** Small statistics kit used by fitness functions and reports. *)

(** Arithmetic mean of a non-empty array. *)
val mean : float array -> float

(** Geometric mean of a non-empty array of positive values; the paper's
    suite-level aggregate. Raises [Invalid_argument] on non-positive input. *)
val geomean : float array -> float

(** Population standard deviation. *)
val stddev : float array -> float

(** [percentile xs p] is the exact nearest-rank [p]-th percentile of a
    non-empty array ([p] in [[0, 100]]): always an actual sample, never an
    interpolated value.  [percentile xs 0. = min], [percentile xs 100. = max].
    Raises [Invalid_argument] on an empty array or [p] outside the range. *)
val percentile : float array -> float -> float

(** [reduction_pct r] converts a normalized ratio to a percentage reduction;
    e.g. [reduction_pct 0.83 = 17.]. *)
val reduction_pct : float -> float

(** [ratio ~baseline x = x /. baseline]; baseline must be positive. *)
val ratio : baseline:float -> float -> float
