(* Minimal JSON reader for trace files.  The tracer only ever writes flat
   objects of scalars, but the parser accepts full JSON (nested objects,
   arrays) so hand-edited or foreign traces don't crash the summarizer.
   No external dependency: the toolchain image has no yojson. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else error st ("expected " ^ word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then error st "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (if st.pos >= String.length st.src then error st "unterminated escape";
       let e = st.src.[st.pos] in
       st.pos <- st.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         if st.pos + 4 > String.length st.src then error st "bad \\u escape";
         let hex = String.sub st.src st.pos 4 in
         st.pos <- st.pos + 4;
         let code =
           try int_of_string ("0x" ^ hex) with _ -> error st "bad \\u escape"
         in
         (* Our own writer only escapes control characters; decode the BMP
            codepoint as UTF-8 so round-trips are lossless for those. *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> error st "unknown escape");
      go ()
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

let parse_number st =
  let start = st.pos in
  while st.pos < String.length st.src && is_num_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> error st ("bad number " ^ s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    expect st '{';
    skip_ws st;
    if peek st = Some '}' then (st.pos <- st.pos + 1; Obj [])
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; members ((k, v) :: acc)
        | Some '}' -> st.pos <- st.pos + 1; Obj (List.rev ((k, v) :: acc))
        | _ -> error st "expected ',' or '}'"
      in
      members []
    end
  | Some '[' ->
    expect st '[';
    skip_ws st;
    if peek st = Some ']' then (st.pos <- st.pos + 1; List [])
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; items (v :: acc)
        | Some ']' -> st.pos <- st.pos + 1; List (List.rev (v :: acc))
        | _ -> error st "expected ',' or ']'"
      in
      items []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some c when is_num_char c -> parse_number st
  | Some (' ' .. '~' as c) -> error st (Printf.sprintf "unexpected byte '%c'" c)
  | Some c -> error st (Printf.sprintf "unexpected byte \\x%02x" (Char.code c))

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error "trailing input" else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ---------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_float = function
  | Num f -> Some f
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (Float.to_int f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

(* --- writer -------------------------------------------------------------- *)

let escape_to buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let number_to_string f =
  (* Integral values print as integers so ids and counters round-trip
     without a spurious ".";  everything else uses enough digits to
     reparse to the same float. *)
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let encode v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
      if Float.is_finite f then Buffer.add_string buf (number_to_string f)
      else Buffer.add_string buf "null" (* JSON has no nan/inf *)
    | Str s ->
      Buffer.add_char buf '"';
      escape_to buf s;
      Buffer.add_char buf '"'
    | List vs ->
      Buffer.add_char buf '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char buf ','; go v) vs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_to buf k;
          Buffer.add_string buf "\":";
          go v)
        kvs;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf
