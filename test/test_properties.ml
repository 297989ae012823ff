open Inltune_jir
open Inltune_vm
open Inltune_opt
module Rng = Inltune_support.Rng

(* Property-based tests over random well-formed programs (see [Gen_random]).
   The central property is the compiler's soundness: whatever the heuristic,
   optimizing a program must not change what it computes or prints. *)

let observe ?(fuel = 400_000) ?plan ~heuristic ~inline_enabled p =
  let cfg = Machine.config ~fuel ~inline_enabled ?plan Machine.Opt heuristic in
  let vm = Machine.create cfg Platform.x86 p in
  match Machine.run_iteration vm with
  | it -> Some (it.Machine.ret, Array.to_list it.Machine.it_outputs)
  | exception Machine.Out_of_fuel -> None

let random_heuristic seed =
  let rng = Rng.create seed in
  Heuristic.of_array (Array.map (fun (lo, hi) -> Rng.range rng lo hi) Heuristic.ranges)

let seed_gen = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000)

(* 1. The optimizer pipeline preserves observable semantics for arbitrary
   heuristics. *)
let semantics_preserved seed =
  let p = Gen_random.program seed in
  match observe ~heuristic:Heuristic.never ~inline_enabled:false p with
  | None -> QCheck.assume_fail ()  (* program too slow: discard *)
  | Some reference ->
    let h = random_heuristic (seed + 1) in
    (match observe ~fuel:2_000_000 ~heuristic:h ~inline_enabled:true p with
    | None -> false  (* optimized code must not run unboundedly longer *)
    | Some result -> result = reference)

let prop_semantics_preserved =
  QCheck.Test.make ~count:60 ~name:"pipeline preserves semantics (random programs/heuristics)"
    seed_gen semantics_preserved

(* Seeds whose programs once passed the virtual leaf's receiver — a heap
   address — into arithmetic and prints, so deleting a dead allocation
   shifted later addresses and changed the printed values. *)
let address_seeds = [ 21336; 32818; 48060; 48319; 70123; 92461 ]

let test_semantics_address_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (semantics_preserved seed))
    address_seeds

(* The generator's promise, checked directly: no address reaches a print,
   so a plan that only deletes dead code (dead allocations included) prints
   exactly what the unoptimized program prints. *)
let only_pass name =
  List.fold_left
    (fun plan (p : Pass.t) -> if p.Pass.name = name then plan else Plan.disable p.Pass.name plan)
    Plan.default Pass.all

let pass_free = Plan.disable "dce" (only_pass "dce")

let test_dce_only_prints_unchanged () =
  List.iter
    (fun seed ->
      let p = Gen_random.program seed in
      let observe plan = observe ~plan ~heuristic:Heuristic.default ~inline_enabled:true p in
      Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true
        (observe (only_pass "dce") = observe pass_free))
    (List.init 200 (fun i -> i) @ address_seeds)

(* 2. Optimized methods remain structurally valid. *)
let prop_pipeline_validates =
  QCheck.Test.make ~count:60 ~name:"pipeline output validates" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      let h = random_heuristic (seed * 3) in
      let cfg = Pipeline.opt_config h in
      let methods = Array.map (fun m -> fst (Pipeline.run p cfg m)) p.Ir.methods in
      Validate.check { p with Ir.methods } = [])

(* 3. The inliner respects its hard size cap. *)
let prop_inline_size_bounded =
  QCheck.Test.make ~count:40 ~name:"inline expansion bounded" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      let h = Heuristic.of_array [| 50; 20; 15; 4000; 400 |] in
      Array.for_all
        (fun m ->
          let m', _ = Engine.run ~program:p ~policy:(Policy.of_heuristic h) m in
          Size.of_method m' <= Engine.max_expanded_size + 100)
        p.Ir.methods)

(* 4. With the never heuristic, inlining changes nothing structurally. *)
let prop_never_heuristic_no_sites =
  QCheck.Test.make ~count:60 ~name:"never heuristic inlines nothing" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      Array.for_all
        (fun m ->
          let _, stats = Engine.run ~program:p ~policy:(Policy.of_heuristic Heuristic.never) m in
          stats.Engine.sites_inlined = 0)
        p.Ir.methods)

(* 5. DCE never removes observable behaviour: prints survive. *)
let count_instr pred m =
  Array.fold_left
    (fun acc blk -> Array.fold_left (fun acc i -> if pred i then acc + 1 else acc) acc blk.Ir.instrs)
    0 m.Ir.blocks

let prop_dce_keeps_prints =
  QCheck.Test.make ~count:100 ~name:"dce keeps prints and stores" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      Array.for_all
        (fun m ->
          let m', _ = Dce.run m in
          let is_effect i =
            match i with Ir.Print _ | Ir.Store _ | Ir.StoreIdx _ | Ir.Call _ | Ir.CallVirt _ -> true | _ -> false
          in
          count_instr is_effect m' = count_instr is_effect m)
        p.Ir.methods)

(* 6. Constprop + cleanup never grow a method. *)
let prop_constprop_dce_shrink =
  QCheck.Test.make ~count:100 ~name:"constprop+dce+cleanup never grow code" seed_gen
    (fun seed ->
      let p = Gen_random.program seed in
      Array.for_all
        (fun m ->
          let m1, _ = Constprop.run p m in
          let m2, _ = Dce.run m1 in
          let m3 = Cleanup.run m2 in
          Size.of_method m3 <= Size.of_method m)
        p.Ir.methods)

(* 7. Interpretation is deterministic: same program, same observation. *)
let prop_interp_deterministic =
  QCheck.Test.make ~count:50 ~name:"interpretation deterministic" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      let a = observe ~heuristic:Heuristic.default ~inline_enabled:true p in
      let b = observe ~heuristic:Heuristic.default ~inline_enabled:true p in
      a = b)

(* 8. The heuristic decision procedure is monotone in callee size for the
   first test: growing the callee can only flip YES -> NO once the always
   band is passed. *)
let prop_heuristic_callee_monotone =
  QCheck.Test.make ~count:200 ~name:"heuristic monotone beyond always band"
    (QCheck.triple (QCheck.int_range 1 60) (QCheck.int_range 1 16) (QCheck.int_range 1 4096))
    (fun (callee, depth, caller) ->
      let h = Heuristic.default in
      let d1 = Heuristic.consider h ~callee_size:callee ~inline_depth:depth ~caller_size:caller in
      let d2 =
        Heuristic.consider h ~callee_size:(callee + 40) ~inline_depth:depth ~caller_size:caller
      in
      (* callee + 40 > 50 >= callee_max, so d2 must be false whenever callee+40
         exceeds the max; in particular yes -> yes is impossible above it. *)
      if callee + 40 > h.Heuristic.callee_max_size then not d2 else d1 = d2 || true)

(* 9. Cleanup is idempotent. *)
let prop_cleanup_idempotent =
  QCheck.Test.make ~count:100 ~name:"cleanup idempotent" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      Array.for_all
        (fun m ->
          let once = Cleanup.run m in
          let twice = Cleanup.run once in
          once = twice)
        p.Ir.methods)

(* 10. The whole-VM measurement is monotone with respect to the fuel knob:
   observing with more fuel returns the same result. *)
let prop_fuel_irrelevant_when_sufficient =
  QCheck.Test.make ~count:30 ~name:"more fuel, same observation" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      match observe ~fuel:400_000 ~heuristic:Heuristic.default ~inline_enabled:true p with
      | None -> QCheck.assume_fail ()
      | Some a -> (
        match observe ~fuel:2_000_000 ~heuristic:Heuristic.default ~inline_enabled:true p with
        | None -> false
        | Some b -> a = b))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_semantics_preserved;
      prop_pipeline_validates;
      prop_inline_size_bounded;
      prop_never_heuristic_no_sites;
      prop_dce_keeps_prints;
      prop_constprop_dce_shrink;
      prop_interp_deterministic;
      prop_heuristic_callee_monotone;
      prop_cleanup_idempotent;
      prop_fuel_irrelevant_when_sufficient;
    ]

(* 11. Generated programs obey define-before-use, and the optimizer keeps it
   that way (the invariant inlining correctness rests on). *)
let prop_defuse_preserved =
  QCheck.Test.make ~count:80 ~name:"pipeline preserves define-before-use" seed_gen
    (fun seed ->
      let p = Gen_random.program seed in
      if Defuse.check_program p <> [] then false
      else begin
        let h = random_heuristic (seed + 7) in
        let cfg = Pipeline.opt_config h in
        let methods = Array.map (fun m -> fst (Pipeline.run p cfg m)) p.Ir.methods in
        Defuse.check_program { p with Ir.methods } = []
      end)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_defuse_preserved;
      Alcotest.test_case "semantics on former address seeds" `Quick
        test_semantics_address_seeds;
      Alcotest.test_case "dce-only plan prints like no passes" `Quick
        test_dce_only_prints_unchanged;
    ]

(* 12. The text format round-trips random programs exactly. *)
let prop_text_roundtrip =
  QCheck.Test.make ~count:120 ~name:"text serialization roundtrips" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      match Text.parse (Text.to_string p) with Ok p' -> p = p' | Error _ -> false)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_text_roundtrip ]

(* 13. CSE is idempotent and never grows code. *)
let prop_cse_idempotent_and_shrinking =
  QCheck.Test.make ~count:80 ~name:"cse idempotent and non-growing" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      Array.for_all
        (fun m ->
          let once, _ = Cse.run m in
          let twice, n2 = Cse.run once in
          Size.of_method once <= Size.of_method m && n2 = 0 && twice = once)
        p.Ir.methods)

(* 14. Register-allocation results are internally consistent. *)
let prop_regalloc_sane =
  QCheck.Test.make ~count:80 ~name:"regalloc invariants" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      Array.for_all
        (fun m ->
          let r8 = Inltune_vm.Regalloc.run ~phys_regs:8 m in
          let r32 = Inltune_vm.Regalloc.run ~phys_regs:32 m in
          r8.Inltune_vm.Regalloc.spilled <= r8.Inltune_vm.Regalloc.vregs
          && r8.Inltune_vm.Regalloc.spilled >= r32.Inltune_vm.Regalloc.spilled
          && r8.Inltune_vm.Regalloc.max_pressure <= r8.Inltune_vm.Regalloc.vregs
          && (r8.Inltune_vm.Regalloc.spilled = 0) = (r8.Inltune_vm.Regalloc.spill_ops = 0))
        p.Ir.methods)

(* 15. Guarded devirtualization preserves semantics under arbitrary (even
   adversarial) oracles. *)
let prop_guarded_devirt_sound =
  QCheck.Test.make ~count:60 ~name:"guarded devirt sound under arbitrary oracles" seed_gen
    (fun seed ->
      let p = Gen_random.program seed in
      match observe ~heuristic:Heuristic.never ~inline_enabled:false p with
      | None -> QCheck.assume_fail ()
      | Some reference ->
        let rng = Rng.create (seed + 13) in
        let nclasses = Array.length p.Ir.classes in
        let oracle ~site_owner:_ ~slot:_ =
          if nclasses > 0 && Rng.bool rng then Some (Rng.int rng nclasses) else None
        in
        let methods =
          Array.map (fun m -> fst (Guarded_devirt.run ~program:p ~oracle m)) p.Ir.methods
        in
        let p' = { p with Ir.methods } in
        Validate.check p' = []
        && (match observe ~heuristic:Heuristic.never ~inline_enabled:false p' with
           | Some result -> result = reference
           | None -> false))

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_cse_idempotent_and_shrinking; prop_regalloc_sane; prop_guarded_devirt_sound ]

(* --- JSON-line formats ------------------------------------------------------ *)

module Json = Inltune_obs.Json
module Event = Inltune_obs.Event
module Summary = Inltune_obs.Summary
module Metric = Inltune_obs.Metric
module Dataset = Inltune_policy.Dataset
module Fitcache = Inltune_core.Fitcache

(* Strings that stress an escaper: quotes, backslashes, control bytes and
   bytes >= 0x80 among plain ASCII. *)
let nasty_string =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (2, oneofl [ '"'; '\\' ]);
        (2, map Char.chr (int_range 0 0x1f));
        (2, map Char.chr (int_range 0x80 0xff));
        (4, printable);
      ]
  in
  string_size ~gen:byte (int_range 0 20)

let finite_float =
  QCheck.Gen.(
    oneof
      [
        float_range (-1e6) 1e6;
        map Float.exp (float_range (-300.0) 300.0);
        map (fun f -> if Float.is_finite f then f else 0.0) float;
      ])

let event_gen =
  let open QCheck.Gen in
  let value =
    oneof
      [
        map (fun n -> Event.Int n) (int_range (-(1 lsl 52)) (1 lsl 52));
        map (fun f -> Event.Float f) (oneof [ finite_float; oneofl [ Float.nan; Float.infinity ] ]);
        map (fun s -> Event.Str s) nasty_string;
        map (fun b -> Event.Bool b) bool;
      ]
  in
  map3
    (fun ts name fields ->
      (* A distinct "k<i>_" prefix keeps keys unique and apart from ts/ev. *)
      let fields = List.mapi (fun i (k, v) -> (Printf.sprintf "k%d_%s" i k, v)) fields in
      { Event.ts; name; fields })
    (float_range 0.0 1e5) nasty_string
    (list_size (int_range 0 6) (pair nasty_string value))

(* What the reader must give back for each written field: ints exactly,
   floats as their 9-digit text, non-finite floats as null. *)
let json_of_value = function
  | Event.Int n -> Json.Num (Float.of_int n)
  | Event.Float f when Float.is_finite f -> Json.Num (float_of_string (Printf.sprintf "%.9g" f))
  | Event.Float _ -> Json.Null
  | Event.Str s -> Json.Str s
  | Event.Bool b -> Json.Bool b

let prop_event_line_round_trip =
  QCheck.Test.make ~count:500 ~name:"trace event line round trip"
    (QCheck.make ~print:Event.to_json event_gen)
    (fun e ->
      match Summary.of_line (Event.to_json e) with
      | Error _ -> false
      | Ok r ->
        r.Summary.ev = e.Event.name
        && r.Summary.ts = float_of_string (Printf.sprintf "%.6f" e.Event.ts)
        && List.for_all
             (fun (k, v) -> Json.member k r.Summary.json = Some (json_of_value v))
             e.Event.fields)

let example_gen =
  let open QCheck.Gen in
  map
    (fun ((x_bench, x_ordinal, x_features), (x_base, x_label, x_benefit)) ->
      { Dataset.x_bench; x_ordinal; x_features; x_base; x_label; x_benefit })
    (pair
       (triple nasty_string (int_range 0 (1 lsl 30)) (array_size (int_range 0 12) finite_float))
       (triple bool bool finite_float))

let prop_dataset_line_round_trip =
  QCheck.Test.make ~count:500 ~name:"dataset line round trip"
    (QCheck.make ~print:Dataset.to_line example_gen)
    (fun x -> Dataset.of_line (Dataset.to_line x) = Ok x)

(* One valid line of each reader's format. *)
let fitcache_line =
  {|{"key":"fed7dad7f172acddcf20e604610f6a4f/adapt/x86/default/3/p:3311111155555555555555/d5/c2048","total_cycles":"626485","running_cycles":"419452","first_exec_cycles":"524805","first_compile_cycles":"101680","opt_compiles":"8","baseline_compiles":"32","code_bytes":"23796","icache_misses":"502","icache_accesses":"668886","steps":"483120","ret":"-3173973043656291853","out_hash":"2258290871219828765"}|}

let valid_lines =
  [
    Event.to_json
      {
        Event.ts = 1.5;
        name = "prof.node";
        fields =
          [
            ("path", Event.Str "fitness.eval;vm.execute");
            ("label", Event.Str "vm.execute");
            ("depth", Event.Int 1);
            ("calls", Event.Int 8);
            ("total_us", Event.Float 60.25);
          ];
      };
    Dataset.to_line
      {
        Dataset.x_bench = "compress";
        x_ordinal = 3;
        x_features = [| 7.0; 52.0; 0.5; -1e-3 |];
        x_base = true;
        x_label = false;
        x_benefit = 0.0037943654128578942;
      };
    fitcache_line;
  ]

(* Random bytes, every truncation and random single-byte mutations of the
   valid lines: a fixed seed, so a failure names a reproducible input. *)
let fuzz_inputs () =
  let rng = Random.State.make [| 2005 |] in
  let bytes n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let random = List.init 600 (fun _ -> bytes (Random.State.int rng 120)) in
  let truncations =
    List.concat_map (fun l -> List.init (String.length l) (String.sub l 0)) valid_lines
  in
  let mutate l =
    let b = Bytes.of_string l in
    Bytes.set b (Random.State.int rng (Bytes.length b)) (Char.chr (Random.State.int rng 256));
    Bytes.to_string b
  in
  let mutations = List.concat_map (fun l -> List.init 400 (fun _ -> mutate l)) valid_lines in
  random @ truncations @ mutations

let test_line_readers_fuzz () =
  let inputs = fuzz_inputs () in
  let never_raises name f =
    List.iter
      (fun s ->
        match f s with
        | _ -> ()
        | exception e -> Alcotest.failf "%s raised %s on %S" name (Printexc.to_string e) s)
      inputs
  in
  never_raises "Json.parse" (fun s -> ignore (Json.parse s));
  never_raises "Summary.of_line" (fun s -> ignore (Summary.of_line s));
  never_raises "Dataset.of_line" (fun s -> ignore (Dataset.of_line s));
  (* A fitness-cache file: each non-blank line is loaded or skipped and
     counted, never fatal. *)
  let corrupt () = Metric.value (Metric.counter "fitness.cache_corrupt") in
  let path = Filename.temp_file "inltune_fuzz" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Fitcache.set_file None;
      Fitcache.clear ();
      Sys.remove path)
    (fun () ->
      List.iter
        (fun s ->
          if String.trim s <> "" && not (String.contains s '\n') then begin
            Out_channel.with_open_bin path (fun oc -> output_string oc (s ^ "\n"));
            Fitcache.set_file None;
            Fitcache.clear ();
            let before = corrupt () in
            (try Fitcache.set_file (Some path)
             with e -> Alcotest.failf "Fitcache.set_file raised %s on %S" (Printexc.to_string e) s);
            Alcotest.(check int) (Printf.sprintf "loaded or counted: %S" s) 1
              (Fitcache.size () + corrupt () - before)
          end)
        inputs)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_event_line_round_trip;
      QCheck_alcotest.to_alcotest prop_dataset_line_round_trip;
      Alcotest.test_case "json-line readers never raise on fuzz" `Quick test_line_readers_fuzz;
    ]

(* --- parser fuzzing: every text format the system reads ------------------ *)

module Store = Inltune_policy.Store
module Evolve = Inltune_ga.Evolve

(* A reader and the valid inputs its fuzz inputs start from.  [check] is
   false only for an accepted artifact text that does not reprint to a
   fixpoint; an exception fails the property. *)
type format = { f_name : string; f_valid : string list; f_check : string -> bool }

let reprints parse print s =
  match parse s with
  | Error _ -> true
  | Ok x -> (
    let t = print x in
    match parse t with Ok y -> print y = t | Error _ -> false)

let answers parse s = match parse s with Ok _ | Error _ -> true

let formats =
  let ckpt_params pop_size seed =
    { Evolve.default_params with Evolve.pop_size; seed; domains = Some 1 }
  in
  let ga_params = ckpt_params 6 42 and gp_params = ckpt_params 6 7 in
  let ga_repr = Evolve.int_repr ~spec:Inltune_core.Params.genome_spec ~params:ga_params in
  let gp_repr = Inltune_gp.Evolve.repr Inltune_gp.Evolve.default_params in
  let dim = Inltune_policy.Features.dim in
  let strategies =
    "inltune-plan v1\npass constprop on iters=1\npass inline_leaves on leaf_size=30 rounds=3\n\
     pass inline_hot on hot_permille=200 budget=100\npass inline on\n\
     pass inline_region on budget=64 depth=2\npass cleanup on\n"
  in
  [
    {
      f_name = "JIR text";
      f_valid = [ Text.to_string (Gen_random.program 3) ];
      f_check = reprints Text.parse Text.to_string;
    };
    {
      f_name = "inltune-plan v1";
      f_valid = [ Plan.to_string Plan.default; strategies ];
      f_check = reprints Plan.of_string Plan.to_string;
    };
    {
      f_name = "inltune-gp v1";
      f_valid =
        [
          "inltune-gp v1\n(le (mul (sub (feat 10) (feat 5)) (min (const 32) (feat 2))) (sub \
           (feat 0) (mul (const 34) (feat 8))))\n";
        ];
      f_check = reprints (Inltune_gp.Tree.of_string ~dim) Inltune_gp.Tree.to_string;
    };
    {
      f_name = "inltune-policy v1";
      f_valid =
        [
          "inltune-policy v1 threshold\n23 11 5 2048 135\n";
          "inltune-policy v1 tree\nsplit 0 22.5\nsplit 8 0.5\nleaf inline\nleaf no-inline\n\
           leaf no-inline\n";
        ];
      f_check = reprints Store.of_string Store.to_string;
    };
    {
      f_name = "GA checkpoint line";
      f_valid = [ Ckpt_cases.ga_golden ];
      f_check = answers (Evolve.snapshot_of_line ~repr:ga_repr ~params:ga_params);
    };
    {
      f_name = "GP checkpoint line";
      f_valid = [ Ckpt_cases.gp_golden ];
      f_check = answers (Evolve.snapshot_of_line ~repr:gp_repr ~params:gp_params);
    };
    {
      f_name = "serve request";
      f_valid =
        [
          {|{"id":"m1","tenant":"tt","op":"measure","bench":"compress","scenario":"adapt","platform":"x86","heuristic":"CALLEE_MAX_SIZE=10","iterations":3,"deadline_ms":500}|};
          {|{"op":"tune","tenant":"tt","scenario":"opt:tot","pop":8,"gens":3,"seed":42,"suite":["compress","db"]}|};
        ];
      f_check = answers Inltune_serve.Proto.parse_request;
    };
    {
      f_name = "INLTUNE_FAULTS";
      f_valid = [ "eval:raise@3,eval:hang@4,serve:corrupt@1,policy.label:raise@2" ];
      f_check = answers Inltune_resilience.Faultinject.parse;
    };
  ]

(* Random bytes, truncations and single-byte mutations of the valid
   inputs, spread evenly over the formats.  Half the mutations write a
   digit, which keeps far more texts parseable and so exercises the
   fixpoint check. *)
let fuzz_case =
  let open QCheck.Gen in
  let* f = oneofl formats in
  let* valid = oneofl f.f_valid in
  let n = String.length valid in
  let+ input =
    oneof
      [
        string_size ~gen:char (int_range 0 200);
        map (String.sub valid 0) (int_range 0 (n - 1));
        map2
          (fun i c -> String.mapi (fun j b -> if j = i then c else b) valid)
          (int_range 0 (n - 1))
          (oneof [ char; numeral ]);
      ]
  in
  (f, input)

let prop_parsers_never_raise =
  QCheck.Test.make ~count:8000 ~name:"parsers answer fuzz with Error; artifacts reprint"
    (QCheck.make ~print:(fun (f, s) -> Printf.sprintf "%s: %S" f.f_name s) fuzz_case)
    (fun (f, s) -> f.f_check s)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_parsers_never_raise ]

(* Every pass is copy-on-write: [Pipeline.run] under a random plan genome
   and heuristic, with a synthetic profile window (so guarded
   devirtualization and the hot-path strategy run too) and with or without
   the fact table, leaves its input method and every method of the program
   as they were.  The engine returns its input when it accepts no site, so
   a pass that wrote into its input would corrupt the program. *)
let pipeline_copy_on_write seed =
  let rng = Rng.create seed in
  let p =
    if Rng.bool rng then Gen_random.program ~max_methods:8 seed
    else
      Inltune_workloads.Suites.program
        (Rng.pick rng
           [|
             Inltune_workloads.Suites.find "compress";
             Option.get (Inltune_workloads.Corpus.find_opt "corpus_dispatch19");
             Option.get (Inltune_workloads.Corpus.find_opt "corpus_chain16");
           |])
  in
  let plan = Plan.of_genes (Array.map (fun (lo, hi) -> Rng.range rng lo hi) Plan.tunable_ranges) in
  let heat = Rng.int rng 5 in
  let edge_count ~site_owner ~callee = ((site_owner * 31) + callee + heat) mod 5 * 40 in
  let window = { Hotpath.edge_count; total_calls = (fun () -> 400) } in
  let config =
    Pipeline.make ~plan
      ~hot_site:(fun ~site_owner ~callee -> edge_count ~site_owner ~callee >= 80)
      ~devirt_oracle:(Guarded_devirt.oracle_of_profile ~program:p ~edge_count)
      ~profile:window
      ?facts:(if Rng.bool rng then Some (Facts.of_program p) else None)
      (Decider.Heuristic (random_heuristic (seed + 1)))
  in
  let digest v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ]) in
  let program_before = digest p.Ir.methods in
  Array.for_all
    (fun m ->
      let before = digest m in
      ignore (Pipeline.run p config m : Ir.methd * Pipeline.stats);
      digest m = before)
    p.Ir.methods
  && digest p.Ir.methods = program_before

let prop_pipeline_copy_on_write =
  QCheck.Test.make ~count:60 ~name:"pipeline leaves its input and the program unchanged" seed_gen
    pipeline_copy_on_write

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_pipeline_copy_on_write ]
