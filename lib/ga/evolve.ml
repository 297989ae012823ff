module Rng = Inltune_support.Rng
module Pool = Inltune_support.Pool
module Stats = Inltune_support.Stats
module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event
module Metric = Inltune_obs.Metric
module Json = Inltune_obs.Json
module Sandbox = Inltune_resilience.Sandbox
module Textfile = Inltune_support.Textfile

(* Generational genetic algorithm, minimizing a fitness function — the role
   ECJ plays in the paper.

   The search loop itself is representation-agnostic: [run_repr] works over
   an abstract genome type through a [repr] record (key, random, crossover,
   mutate, copy, and a JSON codec for one genome) and is what both the
   paper's integer-vector GA ([run], one gene per inlining parameter) and
   the genetic-programming policy search (lib/gp, expression-tree genomes)
   instantiate.

   One generation: keep the [elites] best individuals, then fill the
   population with offspring produced by tournament selection, crossover and
   mutation.  Fitness evaluations are memoized (the GA revisits genotypes
   constantly) and cache misses of a generation are evaluated in parallel
   across domains.

   The paper's searches run for days; two mechanisms keep them alive:

   - Evaluation is fault-tolerant: each cell runs inside [Sandbox.run]
     (any exception sandboxed, only injected faults retried, non-finite
     results rejected as corrupt), a genome with a failed cell gets the
     [guard]'s penalty fitness and is quarantined so it is never evaluated
     again, and a generation whose fresh-evaluation failure rate exceeds
     the threshold stops the search gracefully — best-known result,
     recorded reason — instead of crashing it.

   - [?checkpoint] appends one complete snapshot per generation (population,
     RNG state, memo cache, quarantine, history, counters) to a JSONL file;
     [?resume] restores the newest one and continues bit-identically to an
     uninterrupted run, because every stochastic choice flows through the
     restored RNG and no fitness is ever recomputed.  Both representations
     share the one codec below. *)

type params = {
  pop_size : int;
  generations : int;
  crossover_prob : float;
  mutation_prob : float;  (* int genomes: per gene; trees: per individual *)
  tournament : int;
  elites : int;
  seed : int;
  domains : int option;   (* None = Pool's default; Some 1 = sequential *)
}

let default_params =
  {
    pop_size = 20;
    generations = 50;
    crossover_prob = 0.9;
    mutation_prob = 0.1;
    tournament = 2;
    elites = 2;
    seed = 42;
    domains = None;
  }

(* Failure isolation policy for fitness evaluation.  Every exception a cell
   raises is sandboxed; only an injected fault is retried (see
   [Sandbox.run]). *)
type guard = {
  max_retries : int;          (* further attempts after an injected fault *)
  penalty : float;            (* fitness assigned to genomes that fail *)
  failure_threshold : float;  (* stop when > this fraction of a generation's
                                 fresh evaluations fail *)
}

let default_guard = { max_retries = 1; penalty = 1.0e6; failure_threshold = 0.5 }

(* Flat-grid evaluation: the GA is handed the benchmark axis explicitly and
   submits the whole genome × benchmark grid to the pool as independent
   cells, so unique simulations saturate every domain even when the
   fresh-genome count of a generation is smaller than the domain count.
   [grid_combine] folds one genome's per-benchmark cell values (in
   [grid_axis] order) into its fitness.  The genome is passed to the combine
   so representations can apply genome-shape terms (the GP's parsimony
   pressure) on top of the fold.  A scalar [~fitness] is the one-column
   grid: one cell per genome, combined by taking it. *)
type ('g, 'bm) grid = {
  grid_axis : 'bm array;
  grid_cell : 'g -> 'bm -> float;
  grid_combine : 'g -> float array -> float;
}

type progress = {
  generation : int;
  best_fitness : float;
  mean_fitness : float;
  evaluations : int;  (* cumulative distinct evaluations so far *)
}

(* Search telemetry, one record per generation.  Deliberately separate from
   [progress]: progress maps 1:1 onto checkpoint entries and is part of the
   bit-identity contract (resume must reproduce it exactly), whereas these
   numbers include wall-clock and pool readings that legitimately vary
   between runs. *)
type gen_stats = {
  g_gen : int;
  g_best : float;
  g_mean : float;
  g_evals : int;        (* cumulative distinct evaluations *)
  g_fresh : int;        (* distinct genomes evaluated this generation *)
  g_cache_hits : int;   (* cumulative memo-cache hits *)
  g_diversity : float;  (* distinct genotypes / pop_size, in (0, 1] *)
  g_quarantined : int;  (* quarantine size so far *)
  g_stolen : int;       (* pool chunks stolen by workers this generation *)
  g_idle_ns : int;      (* pool worker idle time this generation *)
  g_busy_ns : int;      (* pool worker busy time this generation *)
  g_wall_s : float;     (* wall time of this generation *)
}

type result = {
  best : int array;
  best_fitness : float;
  history : progress list;  (* oldest first *)
  evaluations : int;
  cache_hits : int;
  failures : int;           (* distinct genomes whose evaluation failed *)
  quarantined : int;        (* size of the quarantine set at the end *)
  stopped : string option;  (* reason the search degraded/stopped early *)
}

(* --- the representation-generic engine ---------------------------------- *)

(* What the engine needs from a genome representation.  Every stochastic
   operator takes the run's RNG so the whole search stays a deterministic
   function of the seed. *)
type 'g repr = {
  r_key : 'g -> string;                      (* stable memoization key *)
  r_random : Rng.t -> 'g;                    (* fresh random individual *)
  r_crossover : Rng.t -> 'g -> 'g -> 'g * 'g;
  r_mutate : Rng.t -> 'g -> 'g;
  r_copy : 'g -> 'g;                         (* [Fun.id] for immutable genomes *)
  r_encode : 'g -> Json.t;                   (* one genome in a checkpoint line *)
  r_decode : Json.t -> ('g, string) Stdlib.result;  (* inverse; validates it *)
  r_no_best : Json.t;                        (* the line's "best" before one exists *)
}

(* One self-contained snapshot of the search, the unit of checkpointing:
   [run_repr] appends one after every generation and restores one on
   resume. *)
type 'g snapshot = {
  s_gen : int;                     (* last completed generation *)
  s_rng : int64;                   (* raw RNG state after this generation *)
  s_pop : 'g array;
  s_best : 'g option;
  s_best_fitness : float;
  s_cache : (string * float) list; (* genome key -> fitness, sorted by key *)
  s_quarantine : string list;      (* genome keys, sorted *)
  s_history : progress list;       (* oldest first *)
  s_evaluations : int;
  s_cache_hits : int;
  s_failures : int;
  s_retries : int;
}

(* Generic search outcome; [run] narrows it back to [result]. *)
type 'g search = {
  s_best_genome : 'g option;   (* None only if nothing ever evaluated finite *)
  s_fitness : float;
  s_progress : progress list;  (* oldest first *)
  s_evals : int;
  s_hits : int;
  s_failed : int;
  s_quarantined : int;
  s_stopped : string option;
}

let crossover rng a b =
  let n = Array.length a in
  if n < 2 then (Array.copy a, Array.copy b)
  else begin
    let cut = 1 + Rng.int rng (n - 1) in
    let child1 = Array.init n (fun i -> if i < cut then a.(i) else b.(i)) in
    let child2 = Array.init n (fun i -> if i < cut then b.(i) else a.(i)) in
    (child1, child2)
  end

let mutate spec params rng g =
  Array.mapi
    (fun i v ->
      if Rng.chance rng params.mutation_prob then
        let lo, hi = Genome.range spec i in
        Rng.range rng lo hi
      else v)
    g

(* --- checkpoints ---------------------------------------------------------- *)

(* Raised by [run_repr] when a checkpoint cannot be written or a resume is
   refused; the message is one line naming the file and the problem. *)
exception Checkpoint_error of string

let ckpt_fail fmt = Printf.ksprintf (fun s -> raise (Checkpoint_error s)) fmt

(* The one checkpoint codec: append-only JSONL, one [snapshot] per completed
   generation, written with [Json.encode] and read with [Json.parse].
   Format v1, in this key order:

     {"v":1,"gen":G,"rng":"<int64>","pop_size":P,"seed":S,"search":"<id>",
      "pop":[<genome>,...],"best":<genome>,"best_fitness":F,
      "cache":{"<key>":F,...},"quarantine":["<key>",...],
      "history":[{"gen":G,"best":F,"mean":F,"evals":N},...],
      "evaluations":N,"cache_hits":N,"failures":N,"retries":N}

   Genomes are whatever the repr encodes (int arrays, tree texts); "best" is
   [r_no_best] until a genome has been evaluated.  Finite floats print as
   %.17g and reload bit for bit; non-finite ones, which JSON cannot hold,
   travel as "inf"/"-inf"/"nan".  The RNG state is a decimal string because
   JSON numbers are doubles and would round an int64.  pop_size, seed and
   search echo the run that wrote the line; "search" is present only when
   the run was named one, and lines written before searches were named load
   unchecked. *)

let json_int n = Json.Num (Float.of_int n)

let json_float f =
  if Float.is_finite f then Json.Num f
  else Json.Str (if f > 0.0 then "inf" else if f < 0.0 then "-inf" else "nan")

let snapshot_to_line ~repr ~params ?search s =
  let strs l = Json.List (List.map (fun k -> Json.Str k) l) in
  let entry p =
    Json.Obj
      [
        ("gen", json_int p.generation);
        ("best", json_float p.best_fitness);
        ("mean", json_float p.mean_fitness);
        ("evals", json_int p.evaluations);
      ]
  in
  Json.encode
    (Json.Obj
       ([
          ("v", json_int 1);
          ("gen", json_int s.s_gen);
          ("rng", Json.Str (Int64.to_string s.s_rng));
          ("pop_size", json_int params.pop_size);
          ("seed", json_int params.seed);
        ]
       @ Option.fold ~none:[] ~some:(fun id -> [ ("search", Json.Str id) ]) search
       @ [
           ("pop", Json.List (Array.to_list (Array.map repr.r_encode s.s_pop)));
           ("best", Option.fold ~none:repr.r_no_best ~some:repr.r_encode s.s_best);
           ("best_fitness", json_float s.s_best_fitness);
           ("cache", Json.Obj (List.map (fun (k, v) -> (k, json_float v)) s.s_cache));
           ("quarantine", strs s.s_quarantine);
           ("history", Json.List (List.map entry s.s_history));
           ("evaluations", json_int s.s_evaluations);
           ("cache_hits", json_int s.s_cache_hits);
           ("failures", json_int s.s_failures);
           ("retries", json_int s.s_retries);
         ]))

(* Decode one parsed line and check it against the run resuming from it:
   the echo must match, and the state must be one the engine could have
   written (a full population, every member in the memo cache).  [Error]
   names the first problem found. *)
let snapshot_of_json ~repr ~params ?search j =
  let member name j =
    match Json.member name j with Some v -> v | None -> ckpt_fail "missing %S" name
  in
  let int name j =
    match member name j with
    | Json.Num f when Float.is_integer f -> Float.to_int f
    | _ -> ckpt_fail "non-integer %S" name
  in
  let float name v =
    match v with
    | Json.Num f -> f
    | Json.Str s when float_of_string_opt s <> None -> float_of_string s
    | _ -> ckpt_fail "non-number in %S" name
  in
  let str name = function Json.Str s -> s | _ -> ckpt_fail "non-string in %S" name in
  let list name =
    match member name j with Json.List l -> l | _ -> ckpt_fail "non-array %S" name
  in
  let genome name v =
    match repr.r_decode v with Ok g -> g | Error m -> ckpt_fail "bad genome in %S: %s" name m
  in
  try
    let v = int "v" j in
    if v <> 1 then ckpt_fail "unsupported checkpoint version %d" v;
    let pop_size = int "pop_size" j and seed = int "seed" j in
    if pop_size <> params.pop_size || seed <> params.seed then
      ckpt_fail "written with pop_size %d seed %d, this run has pop_size %d seed %d" pop_size seed
        params.pop_size params.seed;
    (match Json.member "search" j with
    | None -> ()
    | Some w ->
      let id = str "search" w in
      if Some id <> search then
        ckpt_fail "written by search %S, this run is %s" id
          (Option.fold ~none:"unnamed" ~some:(Printf.sprintf "%S") search));
    let rng =
      let r = str "rng" (member "rng" j) in
      match Int64.of_string_opt r with Some r -> r | None -> ckpt_fail "bad rng state %S" r
    in
    let pop = Array.of_list (List.map (genome "pop") (list "pop")) in
    let best =
      match member "best" j with b when b = repr.r_no_best -> None | b -> Some (genome "best" b)
    in
    let cache =
      match member "cache" j with
      | Json.Obj kvs -> List.map (fun (k, v) -> (k, float "cache" v)) kvs
      | _ -> ckpt_fail "non-object \"cache\""
    in
    if Array.length pop <> pop_size then
      ckpt_fail "population holds %d genomes, pop_size is %d" (Array.length pop) pop_size;
    Array.iter
      (fun g ->
        let k = repr.r_key g in
        if not (List.mem_assoc k cache) then ckpt_fail "population genome %s is not in the cache" k)
      pop;
    let history =
      List.map
        (fun e ->
          let generation = int "gen" e and evaluations = int "evals" e in
          let best_fitness = float "best" (member "best" e) in
          { generation; best_fitness; mean_fitness = float "mean" (member "mean" e); evaluations })
        (list "history")
    in
    Ok
      {
        s_gen = int "gen" j;
        s_rng = rng;
        s_pop = pop;
        s_best = best;
        s_best_fitness = float "best_fitness" (member "best_fitness" j);
        s_cache = cache;
        s_quarantine = List.map (str "quarantine") (list "quarantine");
        s_history = history;
        s_evaluations = int "evaluations" j;
        s_cache_hits = int "cache_hits" j;
        s_failures = int "failures" j;
        s_retries = int "retries" j;
      }
  with Checkpoint_error m -> Error m

let snapshot_of_line ~repr ~params ?search line =
  Result.bind (Json.parse line) (snapshot_of_json ~repr ~params ?search)

(* The newest line that parses wins.  A run killed mid-append leaves one
   truncated line, which does not parse and is skipped; the resumed run's
   appender ends it with a newline ([Textfile.open_append]), so the lines
   it writes parse too.  A line that parses but fails [snapshot_of_json] is
   refused, not skipped. *)
let load_snapshot ~repr ~params ?search path =
  match
    Textfile.fold_lines path ~init:None (fun newest _ line ->
        match Json.parse line with Ok j -> Some j | Error _ -> newest)
  with
  | Error m -> Error m
  | Ok None -> Error (Printf.sprintf "%s: no complete checkpoint record" path)
  | Ok (Some j) ->
    Result.map_error (Printf.sprintf "%s: %s" path) (snapshot_of_json ~repr ~params ?search j)

let append_to path text =
  match Textfile.open_append path with
  | Error m -> ckpt_fail "cannot write checkpoint: %s" m
  | Ok oc -> (
    try
      output_string oc text;
      close_out oc
    with Sys_error m -> ckpt_fail "cannot write checkpoint: %s" m)

(* Append one snapshot line; bumps ["ckpt.writes"] and emits a ["ckpt.write"]
   event whose [kind] is the engine's label. *)
let write_snapshot ~label ~repr ~params ?search path s =
  let line = snapshot_to_line ~repr ~params ?search s in
  append_to path (line ^ "\n");
  Metric.incr (Metric.counter "ckpt.writes");
  if Trace.enabled () then
    Trace.emit "ckpt.write"
      ~fields:
        [
          ("kind", Event.Str label);
          ("gen", Event.Int s.s_gen);
          ("cache", Event.Int (List.length s.s_cache));
        ]

(* --- the search loop ------------------------------------------------------ *)

(* The bounds [run_repr] enforces, also asked by the CLI and the daemon
   before any simulation. *)
let check_params p =
  if p.generations < 0 then Error "the generation count must be >= 0"
  else if p.pop_size < 2 then Error "the population needs at least 2 individuals"
  else if p.elites >= p.pop_size then
    Error (Printf.sprintf "the population must exceed its %d elites" p.elites)
  else if p.tournament < 1 then Error "the tournament size must be >= 1"
  else Ok ()

(* [prefilter], when given, is consulted for every fresh (uncached) genome
   before its simulations are submitted: [Some surrogate] records that value
   as the genome's fitness without evaluating it.  It receives the best
   individual of the *previous* generation (None until one exists), which is
   exactly what a restored snapshot carries — so prefilter decisions replay
   identically across resume.  Surrogates enter the memo cache and therefore
   the checkpoint, like any other fitness.

   [best_view], when given, adds a ["best_genome"] field (the rendered best
   individual) to the per-generation trace event — the GP's best-tree trace.

   [label] names the trace events ("ga" -> "ga.generation" etc.).

   [checkpoint]/[resume] name the JSONL snapshot file; [search] names the
   search in every line written and must match the line resumed from.  A
   refused resume or an unwritable checkpoint raises [Checkpoint_error],
   the latter before generation 0 is evaluated.  Evaluation needs a [grid]
   or a scalar [fitness]; given both, the grid is used. *)
let eval_site = Sandbox.site "eval"

let run_repr ?on_generation ?on_stats ?(guard = default_guard) ?checkpoint ?resume ?search
    ?grid ?fitness ?prefilter ?best_view ~label ~repr ~params () =
  Result.iter_error (fun m -> invalid_arg ("Evolve.run: " ^ m)) (check_params params);
  (* The axis type is erased to cell indices, so a grid and a scalar fitness
     (the one-column grid) share one evaluation path. *)
  let nb, cell, combine =
    match (grid, fitness) with
    | Some gr, _ ->
      (Array.length gr.grid_axis, (fun g j -> gr.grid_cell g gr.grid_axis.(j)), gr.grid_combine)
    | None, Some f -> (1, (fun g _ -> f g), fun _ vals -> vals.(0))
    | None, None -> invalid_arg "Evolve.run: needs ~fitness or ~grid"
  in
  let restored =
    Option.map
      (fun path ->
        match load_snapshot ~repr ~params ?search path with
        | Ok s -> s
        | Error m -> ckpt_fail "cannot resume: %s" m)
      resume
  in
  Option.iter (fun path -> append_to path "") checkpoint;
  let t_start = Trace.now () in
  let c_quarantined = Metric.counter "eval.quarantined" in
  let c_quarantine_hits = Metric.counter "eval.quarantine_hits" in
  let cache : (string, float) Hashtbl.t = Hashtbl.create 256 in
  let quarantine : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let evaluations = ref 0 in
  let cache_hits = ref 0 in
  let failures = ref 0 in
  let retries = ref 0 in
  let stopped = ref None in
  let best = ref None in
  let best_fit = ref infinity in
  (* Failure rate of the most recent evaluate_all, for the degradation check. *)
  let last_failed = ref 0 in
  let last_attempted = ref 0 in
  (* Fresh-genome count of the most recent evaluate_all, for telemetry. *)
  let last_fresh = ref 0 in
  (* Pool-counter high-water marks so telemetry reports per-generation
     deltas; reads only, so profiling/telemetry cannot perturb the search. *)
  let prev_stolen = ref (Metric.value (Metric.counter "pool.tasks_stolen")) in
  let prev_idle = ref (Metric.value (Metric.counter "pool.idle_ns")) in
  let prev_busy = ref (Metric.value (Metric.counter "pool.busy_ns")) in
  let last_t = ref t_start in
  let evaluate_all pop =
    (* Partition into cached and new genotypes; evaluate the new ones in
       parallel, then read everything from the cache. *)
    let fresh = Hashtbl.create 16 in
    Array.iter
      (fun g ->
        let k = repr.r_key g in
        if Hashtbl.mem cache k then begin
          incr cache_hits;
          if Hashtbl.mem quarantine k then Metric.incr c_quarantine_hits
        end
        else if not (Hashtbl.mem fresh k) then Hashtbl.add fresh k g)
      pop;
    let todo = Hashtbl.fold (fun _ g acc -> g :: acc) fresh [] |> Array.of_list in
    (* Sort for a deterministic evaluation order independent of hashing. *)
    Array.sort compare todo;
    (* The prefilter sees fresh genomes in that same deterministic order and
       assigns surrogates against the previous generation's best, so its
       verdicts are a pure function of checkpointed state. *)
    let todo =
      match prefilter with
      | None -> todo
      | Some pf ->
        let elite =
          match !best with Some b when !best_fit < infinity -> Some (b, !best_fit) | _ -> None
        in
        let keep = Inltune_support.Vec.create () in
        Array.iter
          (fun g ->
            match pf ~best:elite g with
            | Some surrogate -> Hashtbl.replace cache (repr.r_key g) surrogate
            | None -> Inltune_support.Vec.push keep g)
          todo;
        Inltune_support.Vec.to_array keep
    in
    last_fresh := Array.length todo;
    (* Fresh genomes × cells are independent pool items, genome-major.  A
       genome fails if any of its cells failed: the first failing cell names
       the attempts and reason, and retries spent on its other cells still
       count. *)
    let couts =
      Pool.map_result ?domains:params.domains
        (fun (g, j) ->
          Sandbox.run ~max_retries:guard.max_retries ~corrupt:Sandbox.corrupt ~site:eval_site
            (fun () -> cell g j))
        (Array.init (Array.length todo * nb) (fun i -> (todo.(i / nb), i mod nb)))
    in
    let outcomes =
      Array.mapi
        (fun i g ->
          let vals = Array.make nb 0.0 in
          let extra = ref 0 in
          let fail = ref None in
          for j = 0 to nb - 1 do
            match couts.((i * nb) + j) with
            | Ok (Ok o) ->
              extra := !extra + (o.Sandbox.o_attempts - 1);
              vals.(j) <- o.Sandbox.result
            | Ok (Error fl) ->
              extra := !extra + (fl.Sandbox.f_attempts - 1);
              if !fail = None then fail := Some (fl.Sandbox.f_attempts, fl.Sandbox.f_reason)
            | Error e -> raise e (* the sandbox catches every exception *)
          done;
          match !fail with
          | Some (attempts, reason) -> `Failed (attempts, reason, !extra)
          | None -> `Value (combine g vals, !extra))
        todo
    in
    let failed_here = ref 0 in
    Array.iteri
      (fun i g ->
        let k = repr.r_key g in
        (match outcomes.(i) with
        | `Value (v, extra) ->
          retries := !retries + extra;
          Hashtbl.replace cache k v
        | `Failed (attempts, reason, extra) ->
          incr failed_here;
          retries := !retries + extra;
          Hashtbl.replace cache k guard.penalty;
          Hashtbl.replace quarantine k ();
          Metric.incr c_quarantined;
          if Trace.enabled () then
            Trace.emit "eval.quarantine"
              ~fields:
                [
                  ("genome", Event.Str k);
                  ("attempts", Event.Int attempts);
                  ("reason", Event.Str reason);
                ]);
        incr evaluations)
      todo;
    failures := !failures + !failed_here;
    last_failed := !failed_here;
    last_attempted := Array.length todo;
    Array.map (fun g -> Hashtbl.find cache (repr.r_key g)) pop
  in
  let degraded gen =
    if
      !last_attempted > 0
      && Float.of_int !last_failed /. Float.of_int !last_attempted > guard.failure_threshold
    then begin
      let reason =
        Printf.sprintf "generation %d: %d of %d fresh evaluations failed (threshold %.2f)" gen
          !last_failed !last_attempted guard.failure_threshold
      in
      if Trace.enabled () then
        Trace.emit (label ^ ".degraded")
          ~fields:
            [
              ("gen", Event.Int gen);
              ("failed", Event.Int !last_failed);
              ("attempted", Event.Int !last_attempted);
              ("threshold", Event.Float guard.failure_threshold);
            ];
      Some reason
    end
    else None
  in
  let rng =
    match restored with
    | Some s -> Rng.of_state s.s_rng
    | None -> Rng.create params.seed
  in
  let pop = ref [||] in
  let fits = ref [||] in
  let history = ref [] in
  let note_generation gen =
    Array.iteri
      (fun i f ->
        if f < !best_fit then begin
          best_fit := f;
          best := Some (repr.r_copy !pop.(i))
        end)
      !fits;
    let p =
      {
        generation = gen;
        best_fitness = !best_fit;
        mean_fitness = Stats.mean !fits;
        evaluations = !evaluations;
      }
    in
    history := p :: !history;
    (* Telemetry is computed only when someone is listening; it reads
       counters and clocks but never writes search state. *)
    let stats =
      if Option.is_none on_stats && not (Trace.enabled ()) then None
      else begin
        let now = Trace.now () in
        let stolen = Metric.value (Metric.counter "pool.tasks_stolen") in
        let idle = Metric.value (Metric.counter "pool.idle_ns") in
        let busy = Metric.value (Metric.counter "pool.busy_ns") in
        let distinct = Hashtbl.create 16 in
        Array.iter (fun g -> Hashtbl.replace distinct (repr.r_key g) ()) !pop;
        let s =
          {
            g_gen = gen;
            g_best = !best_fit;
            g_mean = p.mean_fitness;
            g_evals = !evaluations;
            g_fresh = !last_fresh;
            g_cache_hits = !cache_hits;
            g_diversity = Float.of_int (Hashtbl.length distinct) /. Float.of_int params.pop_size;
            g_quarantined = Hashtbl.length quarantine;
            g_stolen = stolen - !prev_stolen;
            g_idle_ns = idle - !prev_idle;
            g_busy_ns = busy - !prev_busy;
            g_wall_s = now -. !last_t;
          }
        in
        prev_stolen := stolen;
        prev_idle := idle;
        prev_busy := busy;
        last_t := now;
        Some s
      end
    in
    if Trace.enabled () then begin
      let s = Option.get stats in
      Trace.emit (label ^ ".generation")
        ~fields:
          ([
             ("gen", Event.Int p.generation);
             ("best", Event.Float p.best_fitness);
             ("mean", Event.Float p.mean_fitness);
             ("evals", Event.Int p.evaluations);
             ("cache_hits", Event.Int !cache_hits);
             ("wall_s", Event.Float (Trace.now () -. t_start));
             ("fresh", Event.Int s.g_fresh);
             ("diversity", Event.Float s.g_diversity);
             ("quarantined", Event.Int s.g_quarantined);
             ("stolen", Event.Int s.g_stolen);
             ("idle_ns", Event.Int s.g_idle_ns);
             ("busy_ns", Event.Int s.g_busy_ns);
             ("gen_wall_s", Event.Float s.g_wall_s);
           ]
          @
          match (best_view, !best) with
          | Some view, Some b -> [ ("best_genome", Event.Str (view b)) ]
          | _ -> [])
    end;
    (match on_stats, stats with Some f, Some s -> f s | _ -> ());
    match on_generation with Some f -> f p | None -> ()
  in
  let write_ckpt gen =
    Option.iter
      (fun path ->
        let cache_assoc =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) cache []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        let quarantine_keys =
          Hashtbl.fold (fun k () acc -> k :: acc) quarantine [] |> List.sort compare
        in
        write_snapshot ~label ~repr ~params ?search path
          {
            s_gen = gen;
            s_rng = Rng.state rng;
            s_pop = !pop;
            s_best = !best;
            s_best_fitness = !best_fit;
            s_cache = cache_assoc;
            s_quarantine = quarantine_keys;
            s_history = List.rev !history;
            s_evaluations = !evaluations;
            s_cache_hits = !cache_hits;
            s_failures = !failures;
            s_retries = !retries;
          })
      checkpoint
  in
  let start_gen =
    match restored with
    | Some s ->
      pop := s.s_pop;
      List.iter (fun (k, v) -> Hashtbl.replace cache k v) s.s_cache;
      List.iter (fun k -> Hashtbl.replace quarantine k ()) s.s_quarantine;
      evaluations := s.s_evaluations;
      cache_hits := s.s_cache_hits;
      failures := s.s_failures;
      retries := s.s_retries;
      best := s.s_best;
      best_fit := s.s_best_fitness;
      history := List.rev s.s_history;
      fits := Array.map (fun g -> Hashtbl.find cache (repr.r_key g)) !pop;
      if Trace.enabled () then
        Trace.emit (label ^ ".resume")
          ~fields:[ ("gen", Event.Int s.s_gen); ("evals", Event.Int !evaluations) ];
      s.s_gen + 1
    | None ->
      pop := Array.init params.pop_size (fun _ -> repr.r_random rng);
      fits := evaluate_all !pop;
      note_generation 0;
      write_ckpt 0;
      (match degraded 0 with Some r -> stopped := Some r | None -> ());
      1
  in
  let select () =
    (* Tournament: best (lowest fitness) of [tournament] uniform picks. *)
    let best_i = ref (Rng.int rng params.pop_size) in
    for _ = 2 to params.tournament do
      let i = Rng.int rng params.pop_size in
      if !fits.(i) < !fits.(!best_i) then best_i := i
    done;
    !pop.(!best_i)
  in
  let exception Stop in
  (try
     for gen = start_gen to params.generations do
       if !stopped <> None then raise Stop;
       (* Elites: indices of the best [elites] individuals. *)
       let order = Array.init params.pop_size (fun i -> i) in
       Array.sort (fun a b -> compare !fits.(a) !fits.(b)) order;
       let next = Inltune_support.Vec.create () in
       for e = 0 to params.elites - 1 do
         Inltune_support.Vec.push next (repr.r_copy !pop.(order.(e)))
       done;
       while Inltune_support.Vec.length next < params.pop_size do
         let a = select () and b = select () in
         let c1, c2 =
           if Rng.chance rng params.crossover_prob then repr.r_crossover rng a b
           else (repr.r_copy a, repr.r_copy b)
         in
         Inltune_support.Vec.push next (repr.r_mutate rng c1);
         if Inltune_support.Vec.length next < params.pop_size then
           Inltune_support.Vec.push next (repr.r_mutate rng c2)
       done;
       pop := Inltune_support.Vec.to_array next;
       fits := evaluate_all !pop;
       note_generation gen;
       write_ckpt gen;
       match degraded gen with Some r -> stopped := Some r | None -> ()
     done
   with Stop -> ());
  if Trace.enabled () then
    Trace.emit (label ^ ".result")
      ~fields:
        [
          ("best", Event.Float !best_fit);
          ("evals", Event.Int !evaluations);
          ("cache_hits", Event.Int !cache_hits);
          ("failures", Event.Int !failures);
          ("wall_s", Event.Float (Trace.now () -. t_start));
        ];
  {
    s_best_genome = !best;
    s_fitness = !best_fit;
    s_progress = List.rev !history;
    s_evals = !evaluations;
    s_hits = !cache_hits;
    s_failed = !failures;
    s_quarantined = Hashtbl.length quarantine;
    s_stopped = !stopped;
  }

(* --- the paper's integer-vector GA --------------------------------------- *)

(* Int-array genomes: one gene per inlining parameter.  Every stochastic
   operator makes the same RNG calls in the same order as it always did, so
   seeds, checkpoints and resumes stay bit-compatible with runs recorded
   before the engine was generalized.  Checkpoints carry genomes as JSON
   arrays, validated against [spec] on load; "best" is [] before one
   exists. *)
let int_repr ~spec ~params =
  {
    r_key = Genome.key;
    r_random = Genome.random spec;
    r_crossover = crossover;
    r_mutate = mutate spec params;
    r_copy = Array.copy;
    r_encode = (fun g -> Json.List (Array.to_list (Array.map json_int g)));
    r_decode =
      (function
      | Json.List items when List.for_all (fun v -> Json.to_int v <> None) items ->
        let g = Array.of_list (List.filter_map Json.to_int items) in
        if Genome.valid spec g then Ok g
        else Error (Printf.sprintf "genome %s does not fit the genome spec" (Genome.key g))
      | _ -> Error "not an array of integers");
    r_no_best = Json.List [];
  }

let run ?on_generation ?on_stats ?guard ?checkpoint ?resume ?search ?grid ?fitness ~spec
    ~params () =
  let r =
    run_repr ?on_generation ?on_stats ?guard ?checkpoint ?resume ?search ?grid ?fitness
      ~label:"ga" ~repr:(int_repr ~spec ~params) ~params ()
  in
  {
    best = Option.value ~default:[||] r.s_best_genome;
    best_fitness = r.s_fitness;
    history = r.s_progress;
    evaluations = r.s_evals;
    cache_hits = r.s_hits;
    failures = r.s_failed;
    quarantined = r.s_quarantined;
    stopped = r.s_stopped;
  }

(* Random search with the same evaluation budget — the ablation baseline the
   GA is compared against. *)
let random_search ~spec ~budget ~seed ~fitness () =
  Result.iter_error (fun m -> invalid_arg ("Evolve.random_search: " ^ m))
    (Localsearch.check_budget budget);
  let rng = Rng.create seed in
  let best = ref (Genome.random spec rng) in
  let best_fit = ref (fitness !best) in
  for _ = 2 to budget do
    let g = Genome.random spec rng in
    let f = fitness g in
    if f < !best_fit then begin
      best := g;
      best_fit := f
    end
  done;
  (!best, !best_fit)
