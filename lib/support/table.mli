(** Plain-text tables for experiment reports. *)

type align = Left | Right

type t

(** [create ~title ~header ~aligns] starts an empty table; [header] and
    [aligns] must have equal length. *)
val create : title:string -> header:string array -> aligns:align array -> t

(** Append a data row (arity must match the header). *)
val add_row : t -> string array -> unit

(** Append a horizontal rule. *)
val add_rule : t -> unit

(** Format a float with [digits] decimals (default 3). *)
val fmt_float : ?digits:int -> float -> string

(** {!fmt_float}, or ["-"] for a nan or infinite value (a field an older
    trace lacks, a percentile of nothing). *)
val fmt_finite : ?digits:int -> float -> string

val render : t -> string
val print : t -> unit

(** ASCII bar for a value normalized around 1.0 (the baseline mark). *)
val bar : ?width:int -> float -> string
