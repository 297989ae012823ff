(** Minimal JSON reader for trace files (the toolchain image has no yojson).
    Accepts full JSON; the accessors cover the flat scalar objects the tracer
    writes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result

val member : string -> t -> t option
val to_float : t -> float option

(** [Some] only for numbers with no fractional part. *)
val to_int : t -> int option

val to_string : t -> string option
val to_bool : t -> bool option

(** [escape_to buf s] appends [s] to [buf] as the body of a JSON string
    (RFC 8259): quote, backslash and control bytes are escaped, every other
    byte (UTF-8 included) is copied. *)
val escape_to : Buffer.t -> string -> unit

(** Compact one-line JSON encoding.  Integral numbers print without a
    fraction part, strings are fully escaped, and non-finite numbers (which
    JSON cannot represent) encode as [null].  [parse (encode v)] succeeds
    for every finite [v]; the serve protocol's wire format is built on
    this. *)
val encode : t -> string
