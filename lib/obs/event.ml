(* A trace event: a name plus flat, typed fields.  Events are what every
   instrumented layer produces — one per inlining decision, optimizer pass,
   compile, GA generation — and what sinks serialize, one JSONL line or text
   line each.  The schema is deliberately flat (no nesting) so the summary
   aggregator and external tools (jq, pandas) can consume it directly. *)

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  ts : float;  (* seconds since the trace was installed *)
  name : string;
  fields : (string * value) list;
}

let add_value buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    (* NaN/infinity are not JSON; a trace must stay parseable no matter what
       the instrumented code computed. *)
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.9g" f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    Json.escape_to buf s;
    Buffer.add_char buf '"'
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

(* One JSON object per event: {"ts":..., "ev":..., <fields>}.  No newline. *)
let to_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "{\"ts\":%.6f,\"ev\":\"" e.ts);
  Json.escape_to buf e.name;
  Buffer.add_char buf '"';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Json.escape_to buf k;
      Buffer.add_string buf "\":";
      add_value buf v)
    e.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let value_to_string = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> string_of_bool b

(* Human-readable form for the text sink: "[12.345678] ev k=v k=v". *)
let to_text e =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (Printf.sprintf "[%10.6f] %-18s" e.ts e.name);
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf (value_to_string v))
    e.fields;
  Buffer.contents buf

let find e k = List.assoc_opt k e.fields

let int_field e k = match find e k with Some (Int n) -> Some n | _ -> None
let str_field e k = match find e k with Some (Str s) -> Some s | _ -> None
