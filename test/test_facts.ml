open Inltune_jir
open Inltune_opt
open Inltune_vm
open Inltune_core
module W = Inltune_workloads
module Rng = Inltune_support.Rng

(* The per-program fact table ({!Facts}) against fresh computation:
   - every compile through the table — the pipeline serving the first
     constprop and the sizes from it, the O1 and optimizing tiers, VM
     simulations whose validation and baseline templates come from it —
     equals the same compile of a structurally equal copy of the program,
     whose facts are all built afresh and whose pipeline runs every pass;
   - a validation failure is never remembered, a dead program takes its
     facts with it, racing domains share one build, and a fact is built
     once per program however programs interleave. *)

let counter name = Inltune_obs.Metric.value (Inltune_obs.Metric.counter name)

let programs = Array.of_list (W.Suites.all @ W.Corpus.all)
let nprograms = Array.length programs + 30

let program_at i =
  if i < Array.length programs then W.Suites.program programs.(i)
  else Gen_random.program (1000 + i)

(* A structurally equal program that shares no value with [p]: its facts
   are a new entry, built from scratch. *)
let copy (p : Ir.program) : Ir.program = Marshal.from_string (Marshal.to_string p []) 0

let random_heuristic rng =
  Heuristic.of_array (Array.map (fun (lo, hi) -> Rng.range rng lo hi) Heuristic.ranges)

let random_plan rng =
  Plan.of_genes (Array.map (fun (lo, hi) -> Rng.range rng lo hi) Plan.tunable_ranges)

(* The pipeline's inputs under [Opt], or the adaptive tiers' profile-derived
   ones, as fixed functions of the method ids: hot sites, a devirtualization
   oracle that guards some virtual sites and not others, and call-edge
   counts for the hot-path strategy. *)
let config ?facts ~adaptive plan heuristic program =
  let decider = Decider.Heuristic heuristic in
  if not adaptive then Pipeline.make ~plan ?facts decider
  else
    let nclasses = Array.length program.Ir.classes in
    Pipeline.make ~plan ?facts
      ~hot_site:(fun ~site_owner ~callee -> (site_owner + callee) mod 3 = 0)
      ~devirt_oracle:(fun ~site_owner ~slot ->
        if nclasses > 0 && (site_owner + slot) mod 2 = 0 then
          Some (((7 * site_owner) + slot) mod nclasses)
        else None)
      ~profile:
        {
          Hotpath.edge_count =
            (fun ~site_owner ~callee -> ((31 * site_owner) + (17 * callee)) mod 11);
          total_calls = (fun () -> 40);
        }
      decider

let compile_tiers plat ?facts program config (m : Ir.methd) =
  let fresh_vm () = (Codespace.create (), Profile.create (Array.length program.Ir.methods)) in
  let cs, profile = fresh_vm () in
  let opt = Compile.optimizing plat cs program config ~profile m in
  let cs, profile = fresh_vm () in
  let o1 = Compile.o1 plat cs ?facts program ~profile m in
  (opt, o1)

(* The table's baseline templates, instantiated, against fresh baseline
   compiles: every slot a simulation filled. *)
let templates_match_fresh plat program =
  let slots = Compile.baseline_table plat (Facts.of_program program) in
  let nmethods = Array.length program.Ir.methods in
  Array.for_all Fun.id
    (Array.mapi
       (fun mid slot ->
         match slot with
         | None -> true
         | Some t ->
           let instantiate () = (Codespace.create (), Profile.create nmethods) in
           let cs, profile = instantiate () in
           let via = Compile.baseline_of_template cs ~profile t in
           let cs, profile = instantiate () in
           via = Compile.baseline plat cs ~profile program.Ir.methods.(mid))
       slots)

let prop_table_matches_fresh =
  QCheck.Test.make ~count:40 ~name:"compiles through the table = fresh facts, every pass run"
    QCheck.(pair (int_bound (nprograms - 1)) (int_bound 100_000))
    (fun (pi, seed) ->
      let rng = Rng.create seed in
      let program = program_at pi in
      let fresh = copy program in
      let plan = random_plan rng and heuristic = random_heuristic rng in
      let scenario = Rng.pick rng [| Machine.Opt; Machine.Adapt; Machine.Ladder |] in
      let plat = Rng.pick rng [| Platform.x86; Platform.ppc |] in
      let adaptive = scenario <> Machine.Opt in
      let facts = Facts.of_program program in
      let via = config ~facts ~adaptive plan heuristic program in
      let oracle = config ~adaptive plan heuristic fresh in
      (* Twice through the table: once filling it, once reading it. *)
      let same_methods () =
        Array.for_all
          (fun (m : Ir.methd) ->
            let m' = fresh.Ir.methods.(m.Ir.mid) in
            Pipeline.run_detailed program via m = Pipeline.run_detailed fresh oracle m'
            && compile_tiers plat ~facts program via m = compile_tiers plat fresh oracle m')
          program.Ir.methods
      in
      let cfg = Machine.config ~plan scenario heuristic in
      let measure p = Runner.measure ~iterations:2 cfg plat p in
      let vms () =
        let m = measure program in
        (* The second VM reads the entry the first one filled; the
           templates are checked before the copy's lookup takes the
           program's hash slot. *)
        let again = measure program in
        templates_match_fresh plat program && m = again && m = measure (copy program)
      in
      same_methods () && same_methods () && vms ())

(* Machine.create validates through the table; only success is kept. *)
let test_invalid_program_raises_every_time () =
  let p = Gen_random.program 7_001 in
  let bad = { p with Ir.main = Array.length p.Ir.methods } in
  Alcotest.(check bool) "the program is invalid" true (Validate.check bad <> []);
  let built0 = counter "facts.validated.built" in
  let raises () =
    match Machine.create (Machine.config Machine.Opt Heuristic.default) Platform.x86 bad with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "first create raises" true (raises ());
  Alcotest.(check bool) "second create raises" true (raises ());
  Alcotest.(check bool) "third create raises" true (raises ());
  Alcotest.(check int) "no validation remembered" built0 (counter "facts.validated.built");
  let create scenario = Machine.create (Machine.config scenario Heuristic.default) Platform.x86 in
  ignore (create Machine.Opt p : Machine.t);
  ignore (create Machine.Adapt p : Machine.t);
  Alcotest.(check int) "a valid program validates once" (built0 + 1)
    (counter "facts.validated.built")

(* An entry, and every fact built in it, lives only as long as its
   program. *)
let test_dead_program_facts_collected () =
  let program_weak = Weak.create 1 and facts_weak = Weak.create 1 in
  let levels_weak = Weak.create 1 and templates_weak = Weak.create 1 in
  (fun () ->
    let program = Gen_random.program 7_002 in
    let cfg = Machine.config Machine.Adapt Heuristic.default in
    ignore (Runner.measure ~iterations:2 cfg Platform.x86 program : Runner.measurement);
    let facts = Facts.of_program program in
    Weak.set program_weak 0 (Some program);
    Weak.set facts_weak 0 (Some facts);
    Weak.set levels_weak 0 (Some (Leaves.levels facts));
    Weak.set templates_weak 0 (Some (Compile.baseline_table Platform.x86 facts)))
    ();
  Gc.full_major ();
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "program collected" true (Weak.get program_weak 0 = None);
  Alcotest.(check bool) "its entry collected" true (Weak.get facts_weak 0 = None);
  Alcotest.(check bool) "its leaf levels collected" true (Weak.get levels_weak 0 = None);
  Alcotest.(check bool) "its templates collected" true (Weak.get templates_weak 0 = None)

(* Two domains asking for one program's facts at once wait for one build
   each and see the same values. *)
let test_racing_domains_share_facts () =
  let program = Gen_random.program 7_003 in
  let levels0 = counter "facts.leaf_levels.built" in
  let work () =
    let facts = Facts.of_program program in
    Facts.validate facts;
    ( facts,
      Leaves.levels facts,
      Engine.bodies facts,
      Facts.digest facts,
      Compile.baseline_table Platform.ppc facts,
      Array.init (Array.length program.Ir.methods) (Pass.constprop_original facts) )
  in
  let other = Domain.spawn work in
  let f1, l1, b1, d1, t1, c1 = work () in
  let f2, l2, b2, d2, t2, c2 = Domain.join other in
  Alcotest.(check bool) "one entry" true (f1 == f2);
  Alcotest.(check bool) "one leaf-level array" true (l1 == l2);
  Alcotest.(check bool) "one call-site table" true (b1 == b2);
  Alcotest.(check string) "one digest" d1 d2;
  Alcotest.(check bool) "one template table" true (t1 == t2);
  Alcotest.(check bool) "equal constprop results" true (c1 = c2);
  Alcotest.(check int) "leaf levels built once" (levels0 + 1) (counter "facts.leaf_levels.built");
  let fresh = Facts.of_program (copy program) in
  Alcotest.(check bool) "leaf levels = a fresh build" true (Leaves.levels fresh = l1);
  Alcotest.(check bool) "constprop = a fresh build" true
    (Array.init (Array.length program.Ir.methods) (Pass.constprop_original fresh) = c1)

let leaves_plan =
  match
    Plan.of_string
      "inltune-plan v1\n\
       pass constprop on iters=1\n\
       pass inline_leaves on leaf_size=30 rounds=3\n\
       pass cleanup on\n"
  with
  | Ok p -> p
  | Error e -> failwith e

(* However compiles of several programs interleave — VM simulations and
   fitness signatures alike — each program's leaf levels are built once. *)
let test_leaf_levels_built_once_per_program () =
  let ps = List.init 3 (fun i -> Gen_random.program (7_010 + i)) in
  let hashes = List.sort_uniq compare (List.map Hashtbl.hash ps) in
  Alcotest.(check int) "distinct program hashes" 3 (List.length hashes);
  let c0 = counter "facts.leaf_levels.built" in
  let cfg = Machine.config ~plan:leaves_plan Machine.Opt Heuristic.default in
  for _ = 1 to 4 do
    List.iter
      (fun p ->
        ignore (Runner.measure ~iterations:2 cfg Platform.x86 p : Runner.measurement);
        ignore
          (Fitcache.signature ~scenario:Machine.Opt ~heuristic:Heuristic.default
             ~inline_enabled:true ~plan:leaves_plan p
            : string))
      ps
  done;
  Alcotest.(check int) "one build per program" (c0 + 3) (counter "facts.leaf_levels.built")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_table_matches_fresh;
    Alcotest.test_case "invalid program raises on every create" `Quick
      test_invalid_program_raises_every_time;
    Alcotest.test_case "dead program's facts are collected" `Quick
      test_dead_program_facts_collected;
    Alcotest.test_case "racing domains share one build" `Quick test_racing_domains_share_facts;
    Alcotest.test_case "leaf levels built once per program" `Quick
      test_leaf_levels_built_once_per_program;
  ]
