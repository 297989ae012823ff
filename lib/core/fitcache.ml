open Inltune_jir
open Inltune_opt
open Inltune_vm
module Metric = Inltune_obs.Metric
module Json = Inltune_obs.Json

(* Decision-signature fitness cache.

   The GA revisits heuristics constantly, and — the paper's plateau
   observation — many *distinct* 5-parameter genomes induce exactly the same
   inlining decisions on a given program.  Simulating both is pure waste: the
   compiled code, and therefore every cycle count the VM reports, is a
   function of which call sites get expanded, not of the parameter values
   that chose them.  This module computes a cheap semantic key — the
   **decision signature** — for a (program, scenario, platform, heuristic)
   query by running only the inliner's decision procedure, and reuses the
   previously measured [Runner.measurement] whenever the signature matches.

   Soundness is scenario-split:

   - [Opt]: every method is optimized exactly once, on its
     constant-propagated form, with no profile input ([hot_site] and the
     devirt oracle are [None]).  [Engine.walk] with the constprop'd methods
     as roots and the original methods as callee bodies therefore
     reproduces the *exact* verdict sequence the real compile performs, so
     the signature is the hash of those plans — two heuristics with equal
     plans compile every method identically and the measurement carries
     over bit-for-bit.  This is the maximal sound merge.

   - [Adapt]/[Ladder]: which sites are decided (and their hot flags) depends
     on the runtime profile, which itself depends on earlier decisions, so a
     static walk cannot enumerate the queries.  Instead the signature
     projects the heuristic onto the program: for every distinct static
     method size [s] it records the three threshold bits
     [s > CALLEE_MAX_SIZE], [s < ALWAYS_INLINE_SIZE] and
     [s <= HOT_CALLEE_MAX_SIZE], plus [MAX_INLINE_DEPTH] clamped to the
     method count (an inline chain holds distinct methods, so no reachable
     depth exceeds it) and [CALLER_MAX_SIZE] verbatim.  Two heuristics with
     equal projections return identical verdicts for *any* reachable query —
     by induction over the decision sequence the whole execution, profile
     included, stays identical.  Weaker merging than the walk, but sound
     under profile feedback.

   Alternative inlining strategies (inline_leaves / inline_hot /
   inline_region) never read the heuristic or the decider, which is what
   keeps both arguments intact when a plan schedules them: a strategy's
   output is a deterministic function of its input, its plan knobs (inside
   the key's plan tag), and — for inline_hot — the profile trajectory, which
   the induction already covers.  When a *static* strategy (one whose
   decisions read only the program and the site record) is the plan's
   leading inliner and the decider-driven inline item is off, the signature
   is that strategy's own exact engine walk, so two strategies with
   different verdict vectors can never share a measurement; every other
   strategy shape falls back conservatively (exact heuristic parameters when
   the heuristic still runs, an opaque constant when it does not).

   The cache is two-tier: a mutex-guarded in-memory table, plus an optional
   append-only JSONL file ([set_file], CLI [--fitness-cache]) that is loaded
   on attach and appended to on every fresh measurement, so warm state
   survives process restarts and composes with GA checkpoint/resume (the
   checkpoint layer memoizes genome fitness above this layer; this layer
   dedups the simulations below it).  Keys are content-addressed — program
   digest × scenario × platform × iterations × signature — so files can be
   shared across runs and machines; a corrupt or truncated line (killed
   mid-append) is skipped with a warning, never an abort. *)

(* --- per-program derived data ------------------------------------------ *)

(* What the signatures read of a program lives in its fact-table entry
   ({!Facts}), looked up once per query: the digest, the original methods'
   call-site tables ([Engine.bodies]), and these two. *)

(* The [Opt] walk's roots: the constant-propagated methods (the pipeline's
   own first-constprop results) and their call-site tables. *)
type roots = {
  r_cp : Ir.methd array;
  r_tables : Engine.call_sites;
}

let roots_key =
  Facts.key ~name:"walk_roots" (fun f ->
      let cp =
        Array.init (Array.length (Facts.sizes f)) (fun mid -> fst (Pass.constprop_original f mid))
      in
      { r_cp = cp; r_tables = Engine.call_sites cp })

(* Distinct static method sizes, sorted: the [Adapt] projection's domain. *)
let distinct_sizes_key =
  Facts.key ~name:"distinct_sizes" (fun f ->
      Array.to_list (Facts.sizes f) |> List.sort_uniq compare |> Array.of_list)

let program_digest prog = Facts.digest (Facts.of_program prog)

(* --- signatures --------------------------------------------------------- *)

(* The plan with the VM's legacy inline ablation applied — what the
   pipeline actually interprets; every shape question below is asked of
   this. *)
let effective_plan ~inline_enabled plan =
  if inline_enabled then plan else Plan.disable "inline" plan

(* Under [Opt] the inline_hot pass is structurally inapplicable (no profile
   exists), so the plan-shape analysis must not see it. *)
let opt_skip pass = pass = "inline_hot"

let any_enabled_inliner ~skip plan =
  List.exists (fun n -> (not (skip n)) && Plan.has_enabled n plan) Pass.inliner_names

(* The exact walk: per-method decision-plan bit strings of [policy_of] with
   the constprop'd methods as roots, indexed by method id. *)
let walks facts policy_of =
  let bodies = Engine.bodies facts and roots = Facts.get facts roots_key in
  Array.mapi
    (fun mid cpm -> Engine.walk ~bodies ~roots:roots.r_tables ~policy:(policy_of cpm) mid)
    roots.r_cp

(* Exact walk signature: hash of the concatenated walks. *)
let walk_digest walks =
  let buf = Buffer.create 256 in
  Array.iter
    (fun w ->
      Buffer.add_string buf w;
      Buffer.add_char buf '|')
    walks;
  "w:" ^ Digest.to_hex (Digest.string (Buffer.contents buf))

let walk_signature facts policy_of = walk_digest (walks facts policy_of)

(* The signature, plus the per-method walks when it is the decider-driven
   inline item's exact walk under [Opt] — the one case in which each
   method's walk alone determines its optimized code (below). *)
let signature_and_walks ~scenario ~heuristic ~inline_enabled ~plan facts =
  let plan = effective_plan ~inline_enabled plan in
  let heuristic_params () =
    Printf.sprintf "h:%s"
      (String.concat ","
         (Array.to_list (Array.map string_of_int (Heuristic.to_array heuristic))))
  in
  let inexact sg = (sg, None) in
  match scenario with
  | Machine.Opt -> (
    if not (any_enabled_inliner ~skip:opt_skip plan) then inexact "off"
    else
      let heuristic_used = Plan.has_enabled "inline" plan in
      match Plan.first_walkable_inliner ~skip:opt_skip plan with
      | Some it when it.Plan.pass = "inline" ->
        (* Exact: the walk replays the decider's verdict sequence.  Strategy
           items scheduled after inline are decider-independent functions of
           its output, so equal walks still imply identical compilation. *)
        let policy = Policy.of_heuristic heuristic in
        let w = walks facts (fun _ -> policy) in
        (walk_digest w, Some w)
      | Some it when not heuristic_used -> inexact (
        (* The leading inliner is a strategy and the decider-driven inline
           item is off: decisions read nothing the heuristic controls, so
           the strategy's own walk is exact — and distinct strategies with
           different verdict vectors hash apart, which keeps their
           measurements apart even before the key's plan tag does. *)
        match Option.bind (Pass.find it.Plan.pass) (fun p -> p.Pass.static_policy) with
        | Some mk -> walk_signature facts (mk (Plan.item_knob it) facts)
        | None -> "n:static" (* non-static strategy: plan tag isolates *))
      | Some _ ->
        (* A strategy leads but the heuristic-driven inline item still runs
           later, on code the walk cannot reconstruct: fall back to the
           exact parameters — still sound (no merging beyond identical
           heuristics under the same plan, which the key's plan tag already
           isolates), just maximally conservative. *)
        inexact (heuristic_params ())
      | None ->
        (* Pre-inline schedule diverges from the single constprop the
           roots walk assumes: same fallbacks, by heuristic relevance. *)
        inexact (if heuristic_used then heuristic_params () else "n:static"))
  | Machine.Adapt | Machine.Ladder ->
    inexact
      (if not (any_enabled_inliner ~skip:(fun _ -> false) plan) then "off"
       else if not (Plan.has_enabled "inline" plan) then
         (* Only strategy inliners run.  Their decisions read the program, the
            site record, and the profile — never the heuristic — and the
            profile trajectory is deterministic given the plan, so under a
            fixed plan tag every heuristic produces the same execution. *)
         "n:static"
       else begin
         (* Sound projection under profile feedback: threshold bits per distinct
            callee size + clamped depth limit + caller limit.  Strategy items
            stay heuristic-independent, so the induction (equal projections ⇒
            identical decisions ⇒ identical profile ⇒ identical execution)
            carries over unchanged. *)
         let buf = Buffer.create 64 in
         Buffer.add_string buf "p:";
         Array.iter
           (fun s ->
             let b = ref 0 in
             if s > heuristic.Heuristic.callee_max_size then b := !b lor 4;
             if s < heuristic.Heuristic.always_inline_size then b := !b lor 2;
             if s <= heuristic.Heuristic.hot_callee_max_size then b := !b lor 1;
             Buffer.add_char buf (Char.chr (Char.code '0' + !b)))
           (Facts.get facts distinct_sizes_key);
         Buffer.add_string buf
           (Printf.sprintf "/d%d/c%d"
              (min heuristic.Heuristic.max_inline_depth (Array.length (Facts.sizes facts)))
              heuristic.Heuristic.caller_max_size);
         Buffer.contents buf
       end)

let signature ~scenario ~heuristic ~inline_enabled ~plan prog =
  fst (signature_and_walks ~scenario ~heuristic ~inline_enabled ~plan (Facts.of_program prog))

(* First-class policy queries (lib/policy stores, GP trees).  Under [Opt]
   with a walk-compatible plan and a *static* policy — one whose decisions
   read nothing but the program and the site record, never the live profile —
   [Engine.walk] over the constprop'd roots reproduces the exact
   compile-time verdict sequence, the same argument as the heuristic walk.
   The resulting signature lives in the same "w:" namespace as the heuristic
   one, and the heuristic walk *is* that walk over [Policy.of_heuristic], so
   a policy whose decisions equal some heuristic's shares that heuristic's
   measurements: cache hits transfer across structurally different policies
   (and across the policy/heuristic divide) whenever the decisions agree.

   Everywhere else — profile-feedback scenarios, non-static policies,
   walk-incompatible plans — the signature falls back to the caller-supplied
   content [digest] of the policy artifact: sound (identical policies replay
   identical decisions), just no cross-policy merging. *)
let policy_signature_of ~scenario ~policy ~digest ~static ~inline_enabled ~plan facts =
  let plan = effective_plan ~inline_enabled plan in
  let skip = match scenario with Machine.Opt -> opt_skip | _ -> fun _ -> false in
  if not (Plan.has_enabled "inline" plan) then
    (* The policy drives only the inline item; with it off the execution is
       policy-independent — "off" when nothing inlines at all, an opaque
       constant (isolated by the key's plan tag) when strategies still run. *)
    if any_enabled_inliner ~skip plan then "n:static" else "off"
  else
    match scenario with
    | Machine.Opt when static && Plan.walk_compatible plan ->
      walk_signature facts (fun _ -> policy)
    | Machine.Opt | Machine.Adapt | Machine.Ladder -> "g:" ^ digest

let policy_signature ~scenario ~policy ~digest ~static ~inline_enabled ~plan prog =
  policy_signature_of ~scenario ~policy ~digest ~static ~inline_enabled ~plan
    (Facts.of_program prog)

(* Non-default plans change what every compile does, so their measurements
   must never alias the default plan's: the key carries a plan tag — a fixed
   "default" for the default plan, the plan's content digest otherwise. *)
let plan_tag plan = if Plan.is_default plan then "default" else "plan:" ^ Plan.digest plan

let key_of_signature ~scenario ~platform ~plan ~iterations facts signature =
  Printf.sprintf "%s/%s/%s/%s/%d/%s" (Facts.digest facts)
    (Machine.scenario_name scenario) platform.Platform.pname (plan_tag plan) iterations
    signature

let key ~scenario ~platform ~heuristic ~inline_enabled ~plan ~iterations prog =
  let facts = Facts.of_program prog in
  key_of_signature ~scenario ~platform ~plan ~iterations facts
    (fst (signature_and_walks ~scenario ~heuristic ~inline_enabled ~plan facts))

(* --- compile-cache keys --------------------------------------------------- *)

(* The "w:" argument applied per method.  In the exact-walk case each method
   is optimized once, from its constprop'd form, with no profile input, and
   its walk records every verdict its inline item makes — inlined callee
   bodies included — so the method's post-pipeline code is a function of the
   program, the plan, that walk and (for register allocation) the platform.
   One walk serves both uses: its digest is the signature, its strands are
   the per-method keys of [Codecache]. *)
let code_keys_of_walks ~platform ~plan facts walks =
  let prefix =
    Printf.sprintf "%s/%s/%s/" (Facts.digest facts) platform.Platform.pname (plan_tag plan)
  in
  Array.mapi (fun mid w -> prefix ^ string_of_int mid ^ "/" ^ w) walks

let code_keys ~scenario ~platform ~heuristic ~inline_enabled ~plan prog =
  let facts = Facts.of_program prog in
  snd (signature_and_walks ~scenario ~heuristic ~inline_enabled ~plan facts)
  |> Option.map (code_keys_of_walks ~platform ~plan facts)

(* --- the cache proper --------------------------------------------------- *)

let sig_hits = Metric.handle "fitness.sig_hits"
let sig_misses = Metric.handle "fitness.sig_misses"
let unique_plans = Metric.handle "fitness.unique_plans"
let cross_tenant_hits = Metric.handle "fitness.cross_tenant_hits"

(* [mu] guards the in-memory table (and [owners]); the attached file has
   its own lock, so a store writes its line after releasing [mu] and other
   domains' lookups never wait on file I/O. *)
let mu = Mutex.create ()
let table : (string, Runner.measurement) Hashtbl.t = Hashtbl.create 256
let on = ref true

(* The attached file: its path and one append channel, opened at the first
   store and closed by [set_file]. *)
type sink = { path : string; mutable oc : out_channel option }

let writer_mu = Mutex.create ()
let sink : sink option ref = ref None

(* Multi-tenant attribution (the serve daemon).  The hook names the tenant
   on whose behalf the *current thread* is working; [owners] remembers which
   tenant first paid for each key's simulation, so a hit by a different
   tenant can be counted as cross-tenant amortization.  Entirely inert —
   zero lookups, zero counters — until a hook is installed. *)
let tenant_hook : (unit -> string option) ref = ref (fun () -> None)
let set_tenant_hook f = tenant_hook := f
let owners : (string, string) Hashtbl.t = Hashtbl.create 64

let enabled () = !on
let set_enabled v = on := v

let clear () =
  Mutex.lock mu;
  Hashtbl.reset table;
  Hashtbl.reset owners;
  Mutex.unlock mu;
  Codecache.clear Codecache.global

let size () =
  Mutex.lock mu;
  let n = Hashtbl.length table in
  Mutex.unlock mu;
  n

(* --- JSONL persistence -------------------------------------------------- *)

let fields (m : Runner.measurement) =
  [
    ("total_cycles", m.Runner.total_cycles);
    ("running_cycles", m.Runner.running_cycles);
    ("first_exec_cycles", m.Runner.first_exec_cycles);
    ("first_compile_cycles", m.Runner.first_compile_cycles);
    ("opt_compiles", m.Runner.opt_compiles);
    ("baseline_compiles", m.Runner.baseline_compiles);
    ("code_bytes", m.Runner.code_bytes);
    ("icache_misses", m.Runner.icache_misses);
    ("icache_accesses", m.Runner.icache_accesses);
    ("steps", m.Runner.steps);
    ("ret", m.Runner.ret);
    ("out_hash", m.Runner.out_hash);
  ]

let entry_to_line k m =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"key\":\"";
  Buffer.add_string b (String.escaped k);
  Buffer.add_string b "\"";
  (* Fields like out_hash (and ret for some programs) span the full 63-bit
     int range, and the JSON layer stores numbers as floats — so every field
     is encoded as a decimal string to survive the round trip exactly. *)
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf ",\"%s\":\"%d\"" name v))
    (fields m);
  Buffer.add_char b '}';
  Buffer.contents b

let entry_of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> (
    (* String-encoded to dodge float precision loss; see [entry_to_line]. *)
    let int name =
      match Json.member name j with
      | Some (Json.Str s) -> int_of_string_opt s
      | _ -> None
    in
    match
      ( Json.member "key" j,
        int "total_cycles", int "running_cycles", int "first_exec_cycles",
        int "first_compile_cycles", int "opt_compiles", int "baseline_compiles",
        int "code_bytes", int "icache_misses", int "icache_accesses",
        int "steps", int "ret", int "out_hash" )
    with
    | ( Some (Json.Str k),
        Some total_cycles, Some running_cycles, Some first_exec_cycles,
        Some first_compile_cycles, Some opt_compiles, Some baseline_compiles,
        Some code_bytes, Some icache_misses, Some icache_accesses,
        Some steps, Some ret, Some out_hash ) ->
      Ok
        ( k,
          {
            Runner.total_cycles; running_cycles; first_exec_cycles;
            first_compile_cycles; opt_compiles; baseline_compiles; code_bytes;
            icache_misses; icache_accesses; steps; ret; out_hash;
          } )
    | _ -> Error "missing or non-integer field")

(* One line per stored key, flushed at once: a killed process loses at most
   the line it was writing, which the loader skips. *)
let append_entry k m =
  Mutex.protect writer_mu (fun () ->
      match !sink with
      | None -> ()
      | Some s ->
        let oc =
          match s.oc with
          | Some oc -> oc
          | None ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 s.path in
            s.oc <- Some oc;
            oc
        in
        output_string oc (entry_to_line k m);
        output_char oc '\n';
        flush oc)

let set_file path =
  Mutex.protect writer_mu (fun () ->
      (match !sink with Some { oc = Some oc; _ } -> close_out oc | Some _ | None -> ());
      sink := Option.map (fun p -> { path = p; oc = None }) path);
  Mutex.lock mu;
  (match path with
  | Some p when Sys.file_exists p ->
    let ic = open_in p in
    (* Warn once per file, not once per line: a big cache truncated by a
       crashed writer could otherwise spray thousands of identical lines on
       stderr.  The first bad line's position and cause are kept for the
       summary; the count also lands in the "fitness.cache_corrupt"
       counter so the serve daemon's stats expose it without scraping. *)
    let lineno = ref 0 and skipped = ref 0 in
    let first_bad : (int * string) option ref = ref None in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         if String.trim line <> "" then
           match entry_of_line line with
           | Ok (k, m) -> if not (Hashtbl.mem table k) then Hashtbl.add table k m
           | Error e ->
             incr skipped;
             if !first_bad = None then first_bad := Some (!lineno, e)
       done
     with End_of_file -> ());
    close_in ic;
    if !skipped > 0 then begin
      Metric.add (Metric.counter "fitness.cache_corrupt") !skipped;
      let where, why = match !first_bad with Some (l, e) -> (l, e) | None -> (0, "") in
      Printf.eprintf
        "warning: fitness cache %s: %d corrupt line%s ignored (first at line %d: %s)\n%!"
        p !skipped
        (if !skipped = 1 then "" else "s")
        where why
    end
  | _ -> ());
  Mutex.unlock mu

(* --- lookup ------------------------------------------------------------- *)

let find_measurement k =
  Mutex.lock mu;
  let r = Hashtbl.find_opt table k in
  Mutex.unlock mu;
  r

(* Only the store that inserts a key writes its line, so the file holds
   each key once. *)
let store_measurement k m =
  let inserted =
    Mutex.protect mu (fun () ->
        if Hashtbl.mem table k then false
        else begin
          Hashtbl.add table k m;
          (match !tenant_hook () with
          | Some t when not (Hashtbl.mem owners k) -> Hashtbl.add owners k t
          | _ -> ());
          true
        end)
  in
  if inserted then begin
    Metric.bump unique_plans;
    append_entry k m
  end

(* A hit where the key's simulation was paid for by a *different* tenant:
   the cross-tenant amortization the serve daemon exists to create. *)
let count_tenant_hit k =
  match !tenant_hook () with
  | None -> ()
  | Some t ->
    Mutex.lock mu;
    let cross =
      match Hashtbl.find_opt owners k with Some owner -> owner <> t | None -> false
    in
    Mutex.unlock mu;
    if cross then Metric.bump cross_tenant_hits

let mem ~scenario ~platform ~heuristic ~inline_enabled ~plan ~iterations prog =
  !on
  &&
  let k = key ~scenario ~platform ~heuristic ~inline_enabled ~plan ~iterations prog in
  Mutex.lock mu;
  let r = Hashtbl.mem table k in
  Mutex.unlock mu;
  r

(* Two domains racing on the same fresh key both simulate (the simulation
   runs outside the lock and is deterministic, so both arrive at the same
   measurement); the first store wins and the counters are best-effort. *)
let cached k simulate =
  match find_measurement k with
  | Some m ->
    Metric.bump sig_hits;
    count_tenant_hit k;
    m
  | None ->
    Metric.bump sig_misses;
    let m = simulate () in
    store_measurement k m;
    m

(* Signature time gets its own profiler span, apart from the lookup and
   the simulation's VM set-up. *)
let profiled_signature f = Inltune_obs.Prof.span "fitness.signature" f

let lookup_or_simulate ~scenario ~platform ~heuristic ~inline_enabled ~plan ~iterations
    ~program simulate =
  if not !on then simulate ~code_keys:None
  else begin
    let facts = Facts.of_program program in
    let signature, walks =
      profiled_signature (fun () ->
          signature_and_walks ~scenario ~heuristic ~inline_enabled ~plan facts)
    in
    cached (key_of_signature ~scenario ~platform ~plan ~iterations facts signature)
      (fun () ->
        simulate ~code_keys:(Option.map (code_keys_of_walks ~platform ~plan facts) walks))
  end

let lookup_or_measure ~scenario ~platform ~heuristic ~inline_enabled ~plan ~iterations
    ~program simulate =
  if not !on then simulate ()
  else
    cached
      (profiled_signature (fun () ->
           key ~scenario ~platform ~heuristic ~inline_enabled ~plan ~iterations program))
      simulate

let policy_key ~scenario ~platform ~policy ~digest ~static ~inline_enabled ~plan ~iterations
    prog =
  let facts = Facts.of_program prog in
  key_of_signature ~scenario ~platform ~plan ~iterations facts
    (policy_signature_of ~scenario ~policy ~digest ~static ~inline_enabled ~plan facts)

(* The policy twin of [lookup_or_measure]: same table, same counters, same
   two-tier persistence — only the signature half of the key differs. *)
let lookup_or_measure_policy ~scenario ~platform ~policy ~digest ~static ~inline_enabled
    ~plan ~iterations ~program simulate =
  if not !on then simulate ()
  else
    cached
      (policy_key ~scenario ~platform ~policy ~digest ~static ~inline_enabled ~plan ~iterations
         program)
      simulate
