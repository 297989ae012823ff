(* Typed expression-tree genomes for genetic programming over the call-site
   feature vector (lib/policy/features): a boolean predicate — the inlining
   decision — built from comparisons over arithmetic on features and
   constants.  Two syntactic categories keep every generated, crossed-over,
   or mutated tree well-typed by construction: [num] expressions evaluate to
   a float, [t] (boolean) expressions to the accept/reject verdict.

   Trees are first-class serializable artifacts like [Plan.t]: a canonical
   single-line prefix form under an "inltune-gp v1" header, parse∘print = id,
   "%.17g" constants so values round-trip exactly, and a content digest over
   the canonical file form.  [clamp] is the decode discipline — the tree
   analogue of [Heuristic.of_array]'s Table 1 clamping: out-of-range or
   non-finite constants are clamped into [const_lo, const_hi] and subtrees
   beyond [max_depth] are pruned deterministically, so every tree in memory
   is canonical no matter how wild the genetic operator (or the file on
   disk) that produced it. *)

type cmp = Le | Gt

type nop = Add | Sub | Mul | Div | Min | Max

type num =
  | Feat of int          (* feature index into the 11-vector *)
  | Const of float
  | Arith of nop * num * num

type t =
  | True
  | False
  | Cmp of cmp * num * num
  | And of t * t
  | Or of t * t
  | Not of t

(* Constants live in Table 1's envelope: the largest parameter cap
   (CALLER_MAX_SIZE's 4000) rounded up to a power-of-two-ish bound.  Every
   feature is a non-negative count, so nothing below zero is ever a useful
   threshold. *)
let const_lo = 0.0
let const_hi = 4096.0

(* Depth counts every node, boolean and numeric alike, root = 1. *)
let max_depth = 8

(* Node-count cap; genetic operators whose offspring exceed it fall back to
   the parent (parsimony pressure handles the gradient below the cap). *)
let max_size = 96

(* --- evaluation ---------------------------------------------------------- *)

let rec eval_num x = function
  | Feat i -> x.(i)
  | Const c -> c
  | Arith (op, a, b) -> (
    let va = eval_num x a in
    let vb = eval_num x b in
    match op with
    | Add -> va +. vb
    | Sub -> va -. vb
    | Mul -> va *. vb
    | Div -> if Float.abs vb < 1e-9 then va else va /. vb (* protected division *)
    | Min -> Float.min va vb
    | Max -> Float.max va vb)

let rec eval t x =
  match t with
  | True -> true
  | False -> false
  | Cmp (Le, a, b) -> eval_num x a <= eval_num x b
  | Cmp (Gt, a, b) -> eval_num x a > eval_num x b
  | And (a, b) -> eval a x && eval b x
  | Or (a, b) -> eval a x || eval b x
  | Not a -> not (eval a x)

(* --- shape --------------------------------------------------------------- *)

let rec num_size = function
  | Feat _ | Const _ -> 1
  | Arith (_, a, b) -> 1 + num_size a + num_size b

let rec size = function
  | True | False -> 1
  | Cmp (_, a, b) -> 1 + num_size a + num_size b
  | And (a, b) | Or (a, b) -> 1 + size a + size b
  | Not a -> 1 + size a

let rec num_depth = function
  | Feat _ | Const _ -> 1
  | Arith (_, a, b) -> 1 + max (num_depth a) (num_depth b)

let rec depth = function
  | True | False -> 1
  | Cmp (_, a, b) -> 1 + max (num_depth a) (num_depth b)
  | And (a, b) | Or (a, b) -> 1 + max (depth a) (depth b)
  | Not a -> 1 + depth a

(* --- the decode discipline ----------------------------------------------- *)

let clamp_const c =
  if Float.is_nan c then const_lo else Float.max const_lo (Float.min const_hi c)

(* Deterministic depth pruning keeps the leftmost leaf of an over-deep
   numeric subtree (constants clamped on the way out); an over-deep boolean
   combinator collapses to [False] — reject, the safe default, the same
   conservative direction [Engine.max_expanded_size] takes. *)
let rec num_leftmost = function
  | Feat _ as n -> n
  | Const c -> Const (clamp_const c)
  | Arith (_, a, _) -> num_leftmost a

let clamp t =
  let rec cnum budget n =
    match n with
    | Feat _ -> n
    | Const c -> Const (clamp_const c)
    | Arith (op, a, b) ->
      if budget <= 1 then num_leftmost n
      else Arith (op, cnum (budget - 1) a, cnum (budget - 1) b)
  in
  let rec cbool budget t =
    match t with
    | True | False -> t
    | Cmp (op, a, b) ->
      (* A comparison needs one level for itself and one for its operands. *)
      if budget < 2 then False else Cmp (op, cnum (budget - 1) a, cnum (budget - 1) b)
    | And (a, b) ->
      if budget < 2 then False else And (cbool (budget - 1) a, cbool (budget - 1) b)
    | Or (a, b) ->
      if budget < 2 then False else Or (cbool (budget - 1) a, cbool (budget - 1) b)
    | Not a -> if budget < 2 then False else Not (cbool (budget - 1) a)
  in
  cbool max_depth t

let rec num_well_formed ~dim = function
  | Feat i -> i >= 0 && i < dim
  | Const c -> Float.is_finite c && c >= const_lo && c <= const_hi
  | Arith (_, a, b) -> num_well_formed ~dim a && num_well_formed ~dim b

let well_formed ~dim t =
  let rec go = function
    | True | False -> true
    | Cmp (_, a, b) -> num_well_formed ~dim a && num_well_formed ~dim b
    | And (a, b) | Or (a, b) -> go a && go b
    | Not a -> go a
  in
  go t && depth t <= max_depth

(* --- canonical text form ------------------------------------------------- *)

let header = "inltune-gp v1"

let nop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Min -> "min"
  | Max -> "max"

let to_text t =
  let buf = Buffer.create 128 in
  let rec pnum = function
    | Feat i -> Buffer.add_string buf (Printf.sprintf "(feat %d)" i)
    | Const c -> Buffer.add_string buf (Printf.sprintf "(const %.17g)" c)
    | Arith (op, a, b) ->
      Buffer.add_char buf '(';
      Buffer.add_string buf (nop_name op);
      Buffer.add_char buf ' ';
      pnum a;
      Buffer.add_char buf ' ';
      pnum b;
      Buffer.add_char buf ')'
  in
  let binary name a b pa pb =
    Buffer.add_char buf '(';
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    pa a;
    Buffer.add_char buf ' ';
    pb b;
    Buffer.add_char buf ')'
  in
  let rec pbool = function
    | True -> Buffer.add_string buf "true"
    | False -> Buffer.add_string buf "false"
    | Cmp (Le, a, b) -> binary "le" a b pnum pnum
    | Cmp (Gt, a, b) -> binary "gt" a b pnum pnum
    | And (a, b) -> binary "and" a b pbool pbool
    | Or (a, b) -> binary "or" a b pbool pbool
    | Not a ->
      Buffer.add_string buf "(not ";
      pbool a;
      Buffer.add_char buf ')'
  in
  pbool t;
  Buffer.contents buf

let to_string t = header ^ "\n" ^ to_text t ^ "\n"

let digest t = Digest.to_hex (Digest.string (to_string t))

exception Bad of string

let tokenize s =
  let toks = Inltune_support.Vec.create () in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      Inltune_support.Vec.push toks (Buffer.contents buf);
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      match c with
      | '(' | ')' ->
        flush ();
        Inltune_support.Vec.push toks (String.make 1 c)
      | ' ' | '\t' | '\r' -> flush ()
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  Inltune_support.Vec.to_array toks

(* Parses the canonical expression form; constants are clamped and over-deep
   subtrees pruned on the way in ([clamp]), so a successful parse always
   yields a canonical in-memory tree — print∘parse is the identity on
   anything this module ever printed. *)
let of_text ~dim s =
  let toks = tokenize s in
  let n = Array.length toks in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "token %d: %s" (!pos + 1) m))) fmt
  in
  let next what =
    if !pos >= n then fail "unexpected end of expression, expected %s" what
    else begin
      let t = toks.(!pos) in
      incr pos;
      t
    end
  in
  let expect t =
    let got = next (Printf.sprintf "%S" t) in
    if got <> t then fail "expected %S, got %S" t got
  in
  let rec pnum () =
    match next "a numeric expression" with
    | "(" ->
      let v =
        match next "a numeric operator" with
        | "feat" -> (
          let tk = next "a feature index" in
          match int_of_string_opt tk with
          | Some i when i >= 0 && i < dim -> Feat i
          | Some i -> fail "feature index %d out of range [0, %d)" i dim
          | None -> fail "bad feature index %S" tk)
        | "const" -> (
          let tk = next "a constant" in
          match float_of_string_opt tk with
          | Some c when Float.is_finite c -> Const c
          | Some _ -> fail "non-finite constant %S" tk
          | None -> fail "bad constant %S" tk)
        | ("add" | "sub" | "mul" | "div" | "min" | "max") as opn ->
          let op =
            match opn with
            | "add" -> Add
            | "sub" -> Sub
            | "mul" -> Mul
            | "div" -> Div
            | "min" -> Min
            | _ -> Max
          in
          let a = pnum () in
          let b = pnum () in
          Arith (op, a, b)
        | tk -> fail "unknown numeric operator %S" tk
      in
      expect ")";
      v
    | tk -> fail "expected \"(\", got %S" tk
  in
  let rec pbool () =
    match next "a boolean expression" with
    | "true" -> True
    | "false" -> False
    | "(" ->
      let v =
        match next "a boolean operator" with
        | ("le" | "gt") as opn ->
          let a = pnum () in
          let b = pnum () in
          Cmp ((if opn = "le" then Le else Gt), a, b)
        | "and" ->
          let a = pbool () in
          let b = pbool () in
          And (a, b)
        | "or" ->
          let a = pbool () in
          let b = pbool () in
          Or (a, b)
        | "not" -> Not (pbool ())
        | tk -> fail "unknown boolean operator %S" tk
      in
      expect ")";
      v
    | tk -> fail "unknown boolean leaf %S" tk
  in
  if n = 0 then Error "empty expression"
  else
    match pbool () with
    | t ->
      if !pos < n then
        Error (Printf.sprintf "token %d: trailing %S after expression" (!pos + 1) toks.(!pos))
      else Ok (clamp t)
    | exception Bad m -> Error m

(* File form: header line, expression line, nothing else.  Errors are
   one-line and carry the 1-based line number, matching the plan/policy
   artifact convention. *)
let of_string ~dim s =
  match String.split_on_char '\n' s with
  | [] -> Error "line 1: empty file"
  | first :: rest ->
    if String.trim first <> header then
      Error (Printf.sprintf "line 1: expected header %S, got %S" header (String.trim first))
    else (
      match rest with
      | [] -> Error "line 2: missing expression"
      | expr :: tail -> (
        let rec garbage i = function
          | [] -> None
          | l :: ls -> if String.trim l <> "" then Some i else garbage (i + 1) ls
        in
        match garbage 3 tail with
        | Some i -> Error (Printf.sprintf "line %d: trailing garbage after expression" i)
        | None -> (
          if String.trim expr = "" then Error "line 2: missing expression"
          else
            match of_text ~dim expr with
            | Ok t -> Ok t
            | Error m -> Error ("line 2: " ^ m))))

(* A file error already names the path; a parse error gets it here. *)
let load ~dim path =
  Result.bind (Inltune_support.Textfile.read path) (fun s ->
      Result.map_error (fun e -> path ^ ": " ^ e) (of_string ~dim s))

let save path t = Inltune_support.Textfile.write path (to_string t)

(* --- human-readable rendering -------------------------------------------- *)

let nop_sym = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Min -> "min"
  | Max -> "max"

let pretty ~names t =
  let rec pnum = function
    | Feat i -> if i >= 0 && i < Array.length names then names.(i) else Printf.sprintf "f%d" i
    | Const c -> Printf.sprintf "%g" c
    | Arith (((Min | Max) as op), a, b) ->
      Printf.sprintf "%s(%s, %s)" (nop_sym op) (pnum a) (pnum b)
    | Arith (op, a, b) -> Printf.sprintf "(%s %s %s)" (pnum a) (nop_sym op) (pnum b)
  in
  let rec pbool = function
    | True -> "true"
    | False -> "false"
    | Cmp (Le, a, b) -> Printf.sprintf "(%s <= %s)" (pnum a) (pnum b)
    | Cmp (Gt, a, b) -> Printf.sprintf "(%s > %s)" (pnum a) (pnum b)
    | And (a, b) -> Printf.sprintf "(%s && %s)" (pbool a) (pbool b)
    | Or (a, b) -> Printf.sprintf "(%s || %s)" (pbool a) (pbool b)
    | Not a -> Printf.sprintf "!%s" (pbool a)
  in
  pbool t
