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
          let m', _ = Inline.run ~program:p ~heuristic:h m in
          Size.of_method m' <= Inline.max_expanded_size + 100)
        p.Ir.methods)

(* 4. With the never heuristic, inlining changes nothing structurally. *)
let prop_never_heuristic_no_sites =
  QCheck.Test.make ~count:60 ~name:"never heuristic inlines nothing" seed_gen (fun seed ->
      let p = Gen_random.program seed in
      Array.for_all
        (fun m ->
          let _, stats = Inline.run ~program:p ~heuristic:Heuristic.never m in
          stats.Inline.sites_inlined = 0)
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
