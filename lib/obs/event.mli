(** Structured trace events: a name plus flat, typed fields.  One event per
    inlining decision, optimizer pass, compile, VM iteration, GA generation;
    sinks serialize each as one JSONL or text line. *)

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  ts : float;  (** seconds since the trace was installed *)
  name : string;
  fields : (string * value) list;
}

(** One JSON object, no trailing newline: [{"ts":..,"ev":..,<fields>}].
    Non-finite floats serialize as [null] so the line stays parseable. *)
val to_json : t -> string

(** Human-readable single line for the text sink. *)
val to_text : t -> string

val find : t -> string -> value option
val int_field : t -> string -> int option
val str_field : t -> string -> string option
