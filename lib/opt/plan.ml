(* Serializable optimization plans: an ordered schedule of pass instances
   with per-instance enable flags and knob values.  [Pipeline.run] is an
   interpreter over one of these; [default] reproduces the historical
   hard-coded schedule exactly, so every pre-plan experiment is bit-identical
   under it.

   Text format (the canonical form [to_string] prints is a fixpoint of
   [of_string]):

       inltune-plan v1
       pass guarded_devirt on
       pass constprop on iters=1
       pass inline on
       ...

   Each "pass" line names a registered {!Pass}, an on/off flag, and values
   for (a subset of) the pass's declared knobs.  Unknown passes, unknown
   knobs, and out-of-range knob values are one-line [Error]s — the CLI turns
   them into exit code 2. *)

type item = {
  pass : string;
  enabled : bool;
  knobs : (string * int) list;  (* values for declared knobs; omitted = default *)
}

type t = { items : item array }

let item ?(enabled = true) ?(knobs = []) pass = { pass; enabled; knobs }

(* The historical pipeline order: devirtualize (adaptive only), fold to
   expose static calls, inline, then let the dataflow passes collect the
   payoff, and clean the CFG.  The three alternative inlining strategies
   are scheduled around the decider-driven inline item but ship *disabled*:
   with them off every measurement is bit-identical to the pre-strategy
   pipeline, and turning one on is a plan edit (or a plan-genome gene). *)
let default =
  {
    items =
      [|
        item "guarded_devirt";
        item "constprop";
        item ~enabled:false "inline_leaves";
        item ~enabled:false "inline_hot";
        item "inline";
        item ~enabled:false "inline_region";
        item "constprop";
        item "cse";
        item "copyprop";
        item "dce";
        item "cleanup";
      |];
  }

let disable name t =
  { items = Array.map (fun it -> if it.pass = name then { it with enabled = false } else it) t.items }

(* The paper's Fig. 1 baseline (and the O1 tier): full dataflow, no
   inlining. *)
let no_inline = disable "inline" default

(* The ablation in DESIGN.md section 5: inlining without the payoff passes.
   Guarded devirtualization, inlining, and CFG cleanup stay. *)
let dataflow_passes = [ "constprop"; "cse"; "copyprop"; "dce" ]

let without_dataflow t =
  {
    items =
      Array.map
        (fun it -> if List.mem it.pass dataflow_passes then { it with enabled = false } else it)
        t.items;
  }

let has_enabled name t =
  Array.exists (fun it -> it.enabled && it.pass = name) t.items

let has_item name t = Array.exists (fun it -> it.pass = name) t.items

(* Knob value of an item: the stored value, else the pass's declared
   default.  [validate]d plans only hold declared knobs in range. *)
let item_knob it name =
  match List.assoc_opt name it.knobs with
  | Some v -> v
  | None -> (
    match Option.bind (Pass.find it.pass) (fun p -> Pass.find_knob p name) with
    | Some k -> k.Pass.k_default
    | None -> invalid_arg (Printf.sprintf "Plan.item_knob: %s has no knob %s" it.pass name))

let validate_item ~where it =
  match Pass.find it.pass with
  | None -> Error (Printf.sprintf "%s: unknown pass '%s'" where it.pass)
  | Some p ->
    let rec check = function
      | [] -> Ok ()
      | (kname, v) :: rest -> (
        match Pass.find_knob p kname with
        | None ->
          Error (Printf.sprintf "%s: unknown knob '%s' for pass '%s'" where kname it.pass)
        | Some k ->
          if v < k.Pass.k_lo || v > k.Pass.k_hi then
            Error
              (Printf.sprintf "%s: knob '%s' of pass '%s' out of range [%d,%d]: %d" where
                 kname it.pass k.Pass.k_lo k.Pass.k_hi v)
          else check rest)
    in
    check it.knobs

(* Inliner-kind passes may appear at most once per plan: a second instance
   would re-expand already-expanded code, and the size trajectory / cache
   shape analysis both assume a single site for each strategy.  (constprop
   and friends may legitimately repeat — the default plan schedules
   constprop twice.) *)
let duplicate_inliner ~where ~seen it =
  if Pass.is_inliner_name it.pass && List.mem it.pass seen then
    Some (Printf.sprintf "%s: duplicate pass '%s'" where it.pass)
  else None

let validate t =
  let rec go i seen =
    if i >= Array.length t.items then Ok t
    else
      let where = Printf.sprintf "item %d" (i + 1) in
      let it = t.items.(i) in
      match duplicate_inliner ~where ~seen it with
      | Some e -> Error e
      | None -> (
        match validate_item ~where it with
        | Ok () -> go (i + 1) (it.pass :: seen)
        | Error e -> Error e)
  in
  go 0 []

(* --- text form ----------------------------------------------------------- *)

let header = "inltune-plan v1"

(* Canonical: every declared knob printed with its effective value, so two
   plans that behave identically serialize identically. *)
let item_to_string it =
  let b = Buffer.create 32 in
  Buffer.add_string b "pass ";
  Buffer.add_string b it.pass;
  Buffer.add_string b (if it.enabled then " on" else " off");
  (match Pass.find it.pass with
  | None -> ()
  | Some p ->
    List.iter
      (fun k ->
        Buffer.add_string b
          (Printf.sprintf " %s=%d" k.Pass.k_name (item_knob it k.Pass.k_name)))
      p.Pass.knobs);
  Buffer.contents b

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  Array.iter
    (fun it ->
      Buffer.add_string b (item_to_string it);
      Buffer.add_char b '\n')
    t.items;
  Buffer.contents b

let parse_item ~where tokens =
  match tokens with
  | pass :: flag :: knobs -> (
    let enabled =
      match flag with
      | "on" -> Ok true
      | "off" -> Ok false
      | s -> Error (Printf.sprintf "%s: expected 'on' or 'off', got '%s'" where s)
    in
    match enabled with
    | Error e -> Error e
    | Ok enabled ->
      let rec parse_knobs acc = function
        | [] -> Ok (List.rev acc)
        | kv :: rest -> (
          match String.index_opt kv '=' with
          | None -> Error (Printf.sprintf "%s: expected knob 'name=value', got '%s'" where kv)
          | Some i -> (
            let k = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            match int_of_string_opt v with
            | None -> Error (Printf.sprintf "%s: knob '%s' value '%s' is not an integer" where k v)
            | Some v -> parse_knobs ((k, v) :: acc) rest))
      in
      match parse_knobs [] knobs with
      | Error e -> Error e
      | Ok knobs -> (
        let it = { pass; enabled; knobs } in
        match validate_item ~where it with Ok () -> Ok it | Error e -> Error e))
  | _ -> Error (Printf.sprintf "%s: expected 'pass <name> on|off [knob=value...]'" where)

let of_string src =
  let lines = String.split_on_char '\n' src in
  let rec go lineno seen_header seen acc = function
    | [] ->
      if not seen_header then Error "empty plan (missing 'inltune-plan v1' header)"
      else Ok { items = Array.of_list (List.rev acc) }
    | line :: rest -> (
      let where = Printf.sprintf "line %d" lineno in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (lineno + 1) seen_header seen acc rest
      else if not seen_header then
        if line = header then go (lineno + 1) true seen acc rest
        else Error (Printf.sprintf "%s: expected header '%s'" where header)
      else
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | "pass" :: tokens -> (
          match parse_item ~where tokens with
          | Ok it -> (
            match duplicate_inliner ~where ~seen it with
            | Some e -> Error e
            | None -> go (lineno + 1) seen_header (it.pass :: seen) (it :: acc) rest)
          | Error e -> Error e)
        | verb :: _ -> Error (Printf.sprintf "%s: unknown directive '%s'" where verb)
        | [] -> go (lineno + 1) seen_header seen acc rest)
  in
  go 1 false [] [] lines

(* Canonical-text equality: knob defaults are normalized away, so a plan
   that spells out iters=1 equals one that omits it. *)
let equal a b = to_string a = to_string b
let is_default t = equal t default

(* Content digest of the canonical form — the plan tag fitness-cache keys
   carry for non-default plans. *)
let digest t = Digest.to_hex (Digest.string (to_string t))

(* --- fitness-cache compatibility ---------------------------------------- *)

(* The first enabled inliner-kind item reached through the canonical
   pre-inline schedule — optional guarded_devirt (a structural no-op
   without an oracle, which Opt never has) plus exactly one
   single-iteration constprop.  [skip] drops items that are structurally
   inapplicable in the caller's scenario (Fitcache passes the Opt-skips:
   inline_hot has no profile there).  [None] when the schedule diverges
   from what [Engine.walk] over once-constprop'd methods assumes, or when
   no inliner is enabled: the walk would see the wrong methods.  Whatever
   runs *after* the first inliner never affects that inliner's decisions,
   so it does not matter here (Fitcache reasons about it separately). *)
let first_walkable_inliner ?(skip = fun _ -> false) t =
  let n = Array.length t.items in
  let rec scan i saw_constprop =
    if i >= n then None (* no enabled inliner item *)
    else
      let it = t.items.(i) in
      if (not it.enabled) || skip it.pass then scan (i + 1) saw_constprop
      else if Pass.is_inliner_name it.pass then if saw_constprop then Some it else None
      else
        match it.pass with
        | "guarded_devirt" -> scan (i + 1) saw_constprop
        | "constprop" ->
          if saw_constprop || item_knob it "iters" <> 1 then None else scan (i + 1) true
        | _ -> None
  in
  scan 0 false

(* Whether [Engine.walk] over once-constprop'd methods reproduces this
   plan's exact inline-decision sequence under the Opt scenario (no profile
   inputs): the first walkable inliner is the decider-driven "inline" item.
   Strategy items scheduled after it are decider-independent functions of
   its output, so they never break the equal-walk ⇒ equal-code argument. *)
let walk_compatible t =
  match first_walkable_inliner ~skip:(fun p -> p = "inline_hot") t with
  | Some it -> it.pass = "inline"
  | None -> false

(* --- genome encoding ------------------------------------------------------ *)

(* The plan-genome tail the GA appends to the five Table 1 genes: pass
   toggles, post-inline strengths, the relative order of the payoff
   passes, and the inlining strategies' toggles and knobs.  The pre-inline
   constprop and the final cleanup are pinned on — dropping either mostly
   degenerates the search, and pinning constprop keeps every genome's
   pre-inline schedule walkable, so plan-genome tuning still benefits from
   the decision-signature cache (exact heuristic or strategy walks,
   depending on which inliner leads). *)
let gene_names =
  [|
    "GUARDED_DEVIRT";    (* 0/1 *)
    "INLINE";            (* 0/1 *)
    "POST_CONSTPROP";    (* 0/1 *)
    "POST_CONSTPROP_ITERS";  (* 1..3 *)
    "CSE";               (* 0/1 *)
    "COPYPROP";          (* 0/1 *)
    "DCE";               (* 0/1 *)
    "DCE_ITERS";         (* 1..2 *)
    "DATAFLOW_ORDER";    (* 0..5: permutation of cse/copyprop/dce *)
    (* Inlining-strategy toggles and knobs (see leaves.ml / hotpath.ml /
       region.ml); all default off, so the default genome still decodes to
       the bit-identical historical pipeline. *)
    "INLINE_LEAVES";     (* 0/1 *)
    "LEAVES_SIZE";       (* 1..60: inline_leaves leaf_size *)
    "LEAVES_ROUNDS";     (* 1..5: inline_leaves rounds *)
    "INLINE_HOT";        (* 0/1 *)
    "HOT_PERMILLE";      (* 1..500: inline_hot hot_permille *)
    "HOT_BUDGET";        (* 16..4096: inline_hot budget *)
    "INLINE_REGION";     (* 0/1 *)
    "REGION_BUDGET";     (* 16..4096: inline_region budget *)
    "REGION_DEPTH";      (* 1..12: inline_region depth *)
  |]

let tunable_ranges =
  [|
    (0, 1); (0, 1); (0, 1); (1, 3); (0, 1); (0, 1); (0, 1); (1, 2); (0, 5);
    (0, 1); (1, 60); (1, 5); (0, 1); (1, 500); (16, 4096); (0, 1); (16, 4096); (1, 12);
  |]

let default_genes = [| 1; 1; 1; 1; 1; 1; 1; 1; 0; 0; 12; 2; 0; 50; 512; 0; 512; 6 |]

(* The six orders of the three payoff passes; index 0 is the historical
   cse -> copyprop -> dce. *)
let orders =
  [|
    [| "cse"; "copyprop"; "dce" |];
    [| "cse"; "dce"; "copyprop" |];
    [| "copyprop"; "cse"; "dce" |];
    [| "copyprop"; "dce"; "cse" |];
    [| "dce"; "cse"; "copyprop" |];
    [| "dce"; "copyprop"; "cse" |];
  |]

(* Like [Heuristic.of_array]: raises on wrong arity, clamps each gene into
   range so corrupt checkpoints cannot produce an invalid plan. *)
let of_genes g =
  if Array.length g <> Array.length tunable_ranges then
    invalid_arg "Plan.of_genes: wrong genome length";
  let v i =
    let lo, hi = tunable_ranges.(i) in
    max lo (min hi g.(i))
  in
  let on i = v i = 1 in
  let iters_knobs i = if v i = 1 then [] else [ ("iters", v i) ] in
  let payoff name =
    match name with
    | "cse" -> item ~enabled:(on 4) "cse"
    | "copyprop" -> item ~enabled:(on 5) "copyprop"
    | "dce" -> item ~enabled:(on 6) ~knobs:(iters_knobs 7) "dce"
    | _ -> assert false
  in
  let order = orders.(v 8) in
  (* A disabled strategy keeps its declared-default knobs: its knob genes
     are behaviorally dead, and normalizing them away keeps every
     genome that differs only there on the same canonical text (one plan
     digest, one fitness-cache key). *)
  let strategy_knobs enabled_gene knobs =
    if on enabled_gene then knobs else []
  in
  {
    items =
      Array.concat
        [
          [|
            item ~enabled:(on 0) "guarded_devirt";
            item "constprop";
            item ~enabled:(on 9) "inline_leaves"
              ~knobs:(strategy_knobs 9 [ ("leaf_size", v 10); ("rounds", v 11) ]);
            item ~enabled:(on 12) "inline_hot"
              ~knobs:(strategy_knobs 12 [ ("hot_permille", v 13); ("budget", v 14) ]);
            item ~enabled:(on 1) "inline";
            item ~enabled:(on 15) "inline_region"
              ~knobs:(strategy_knobs 15 [ ("budget", v 16); ("depth", v 17) ]);
            item ~enabled:(on 2) ~knobs:(iters_knobs 3) "constprop";
          |];
          Array.map payoff order;
          [| item "cleanup" |];
        ];
  }
