(* Plain-text table rendering for experiment reports: every paper table and
   figure is printed as one of these. *)

type align = Left | Right

type t = {
  title : string;
  header : string array;
  aligns : align array;
  rows : string array Vec.t;
}

let create ~title ~header ~aligns =
  if Array.length header <> Array.length aligns then
    invalid_arg "Table.create: header/aligns length mismatch";
  { title; header; aligns; rows = Vec.create () }

let add_row t row =
  if Array.length row <> Array.length t.header then
    invalid_arg "Table.add_row: wrong arity";
  Vec.push t.rows row

let add_rule t = Vec.push t.rows [||]

let fmt_float ?(digits = 3) v = Printf.sprintf "%.*f" digits v
let fmt_finite ?digits v = if Float.is_finite v then fmt_float ?digits v else "-"

let render t =
  let ncols = Array.length t.header in
  let widths = Array.map String.length t.header in
  Vec.iter
    (fun row ->
      if Array.length row > 0 then
        Array.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    t.rows;
  let buf = Buffer.create 1024 in
  let pad align w s =
    let fill = String.make (w - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let rule () =
    for i = 0 to ncols - 1 do
      Buffer.add_string buf (String.make (widths.(i) + 2) '-');
      if i < ncols - 1 then Buffer.add_char buf '+'
    done;
    Buffer.add_char buf '\n'
  in
  let emit_row align_of row =
    for i = 0 to ncols - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_string buf (pad (align_of i) widths.(i) row.(i));
      Buffer.add_char buf ' ';
      if i < ncols - 1 then Buffer.add_char buf '|'
    done;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  emit_row (fun _ -> Left) t.header;
  rule ();
  Vec.iter
    (fun row -> if Array.length row = 0 then rule () else emit_row (fun i -> t.aligns.(i)) row)
    t.rows;
  Buffer.contents buf

let print t = print_string (render t)

(* A crude horizontal bar for figure-style output: value 1.0 is the baseline
   mark; shorter bars mean improvement, per the paper's normalized plots. *)
let bar ?(width = 40) v =
  let clamped = Float.max 0.0 (Float.min 2.0 v) in
  let n = Float.to_int (clamped /. 2.0 *. Float.of_int width) in
  let marker = width / 2 in
  String.init width (fun i ->
      if i = marker then '|' else if i < n then '#' else ' ')
