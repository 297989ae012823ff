open Inltune_jir
open Inltune_opt
open Inltune_vm
module W = Inltune_workloads
module Rng = Inltune_support.Rng

(* Equivalence of the VM's compile tail with what it replaced:
   - lowered code: each instruction's icache address and cost read out of
     the two-word stream against the formulas of the three-array layout,
     static-call site ids in stream order, and [lower] against
     [instantiate] of [template];
   - baseline templates: a VM's baseline compiles against fresh
     [Compile.baseline] runs, sharing between VMs, and the table's
     ephemeron lifetime;
   - [Regalloc.run] against the list-based scan ([Regalloc_list]), also
     from two threads of one domain that share its scratch;
   - [Validate.check] against its eagerly formatting form
     ([Validate_eager]). *)

let programs = Array.of_list (W.Suites.all @ W.Corpus.all)

(* A program by index: the suite and corpus programs first, then random
   ones ([Gen_random]) seeded by the index. *)
let nprograms = Array.length programs + 40

let program_at i =
  if i < Array.length programs then W.Suites.program programs.(i) else Gen_random.program i

let random_heuristic rng =
  Heuristic.of_array (Array.map (fun (lo, hi) -> Rng.range rng lo hi) Heuristic.ranges)

let random_plan rng =
  if Rng.bool rng then Plan.default
  else Plan.of_genes (Array.map (fun (lo, hi) -> Rng.range rng lo hi) Plan.tunable_ranges)

(* The optimizing pipeline under a random heuristic and plan genome, with
   the adaptive scenarios' hot sites and guarded-devirtualization oracle
   half the time. *)
let random_pipeline rng program =
  let heuristic = random_heuristic rng and plan = random_plan rng in
  let nclasses = Array.length program.Ir.classes in
  if Rng.bool rng then Pipeline.make ~plan (Decider.Heuristic heuristic)
  else
    let hot_site ~site_owner ~callee = (site_owner + callee) mod 3 = 0 in
    let devirt_oracle ~site_owner ~slot =
      if nclasses > 0 && (site_owner + slot) mod 2 = 0 then
        Some (((7 * site_owner) + slot) mod nclasses)
      else None
    in
    Pipeline.make ~plan ~hot_site ~devirt_oracle (Decider.Heuristic heuristic)

(* A program's methods as written, and after a random pipeline. *)
let methods_raw_and_optimized rng program =
  let config = random_pipeline rng program in
  Array.to_list program.Ir.methods
  @ List.map (fun m -> fst (Pipeline.run program config m)) (Array.to_list program.Ir.methods)

(* --- lowered code ----------------------------------------------------------- *)

(* The three-array layout's per-instruction address and cost: instruction
   k of block bi at index [block_offsets.(bi) + k], the terminator after
   the block's instructions, [addr + index * bytes_per_instr]. *)
let stream_matches_layout ~plat ~quality ~addr ~bytes_per_instr (m : Ir.methd) (f : Lower.code) =
  let pc = ref 0 and index = ref 0 and ok = ref true in
  Array.iter
    (fun blk ->
      ok := !ok && f.Lower.opc.(!pc) land 0xFF = Lower.op_enter;
      incr pc;
      let n = Array.length blk.Ir.instrs in
      for k = 0 to n do
        let w = f.Lower.opc.(!pc) in
        let cost =
          quality
          * (if k < n then Platform.instr_cost plat blk.Ir.instrs.(k)
             else Platform.term_cost plat blk.Ir.term)
        in
        ok :=
          !ok
          && f.Lower.base + (w lsr 32) = addr + (!index * bytes_per_instr)
          && (w lsr 8) land 0xFFFFFF = cost;
        incr pc;
        incr index
      done)
    m.Ir.blocks;
  !ok && !pc = Array.length f.Lower.opc

(* Static call sites carry the ids a fresh profile hands out when they are
   interned in stream order. *)
let site_ids_in_stream_order ~nmethods ~owner (f : Lower.code) =
  let oracle = Profile.create nmethods in
  let ok = ref true in
  Array.iteri
    (fun pc w ->
      if w land 0xFF = Lower.op_call then begin
        let av = f.Lower.args.(pc) in
        let callee = (av lsr Lower.field_bits) land Lower.field_mask in
        let o = av lsr (2 * Lower.field_bits) in
        ok := !ok && f.Lower.extra.(o) = Profile.intern oracle ~site_owner:owner ~callee
      end)
    f.Lower.opc;
  !ok

let prop_lowered_layout =
  QCheck.Test.make ~count:60 ~name:"lowered stream = three-array layout"
    QCheck.(pair (int_bound (nprograms - 1)) (int_bound 100_000))
    (fun (pi, seed) ->
      let program = program_at pi in
      let rng = Rng.create seed in
      let plat = if Rng.bool rng then Platform.x86 else Platform.ppc in
      let nmethods = Array.length program.Ir.methods in
      List.for_all
        (fun (m : Ir.methd) ->
          let quality = Rng.range rng 1 4 and bytes_per_instr = Rng.range rng 1 64 in
          let addr = Rng.range rng 0 (1 lsl 40) and addr' = Rng.range rng 0 (1 lsl 40) in
          let owner = m.Ir.mid and spill = Rng.range rng 0 9 in
          let lower ~profile ~addr =
            Lower.lower ~plat ~profile ~owner ~quality ~addr ~bytes_per_instr ~spill m
          in
          let fresh = lower ~profile:(Profile.create nmethods) ~addr in
          (* One template bound twice: to a profile that already interned
             other sites, then to a fresh one. Neither binding may leak into
             the other or into the template. *)
          let t = Lower.template ~plat ~quality ~bytes_per_instr ~spill m in
          let busy = Profile.create nmethods in
          for callee = 0 to nmethods - 1 do
            ignore (Profile.intern busy ~site_owner:(nmethods - 1) ~callee : int)
          done;
          let busy' = Profile.create nmethods in
          for callee = 0 to nmethods - 1 do
            ignore (Profile.intern busy' ~site_owner:(nmethods - 1) ~callee : int)
          done;
          let i1 = Lower.instantiate t ~profile:busy ~owner ~addr:addr' in
          let i2 = Lower.instantiate t ~profile:(Profile.create nmethods) ~owner ~addr in
          stream_matches_layout ~plat ~quality ~addr ~bytes_per_instr m fresh
          && site_ids_in_stream_order ~nmethods ~owner fresh
          && i2 = fresh
          && i1 = lower ~profile:busy' ~addr:addr'
          && Profile.interned_sites busy = Profile.interned_sites busy')
        (methods_raw_and_optimized rng program))

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

(* Cost and offset are packed, never truncated: one past each field's
   range is rejected, its last value accepted. *)
let test_lower_rejects_wide_fields () =
  let m nconst =
    {
      Ir.mid = 0;
      mname = "wide";
      nargs = 0;
      nregs = 1;
      blocks = [| { Ir.instrs = Array.make nconst (Ir.Const (0, 7)); term = Ir.Ret 0 } |];
    }
  in
  let lower ~quality ~bytes_per_instr m () =
    Lower.lower ~plat:Platform.x86 ~profile:(Profile.create 1) ~owner:0 ~quality ~addr:0x1000
      ~bytes_per_instr ~spill:0 m
  in
  (* x86 charges one cycle per constant and six per return. *)
  Alcotest.(check bool) "cost 2^24 rejected" true
    (raises_invalid (lower ~quality:(1 lsl 24) ~bytes_per_instr:4 (m 1)));
  Alcotest.(check bool) "largest fitting cost accepted" false
    (raises_invalid (lower ~quality:((1 lsl 24) / 6) ~bytes_per_instr:4 (m 1)));
  Alcotest.(check bool) "offset 2^31 rejected" true
    (raises_invalid (lower ~quality:1 ~bytes_per_instr:(1 lsl 30) (m 2)));
  let f = lower ~quality:1 ~bytes_per_instr:((1 lsl 30) - 1) (m 2) () in
  Alcotest.(check int) "offset 2^31 - 2 accepted" (0x1000 + (2 * ((1 lsl 30) - 1)))
    (f.Lower.base + (f.Lower.opc.(3) lsr 32))

(* --- baseline templates --------------------------------------------------- *)

(* Run [f] on the flat interpreter (the reference compiles baselines fresh),
   restoring the previous interpreter afterwards. *)
let on_flat f =
  let reference = Machine.reference_enabled () in
  Machine.set_reference false;
  Fun.protect ~finally:(fun () -> Machine.set_reference reference) f

let counter name = Inltune_obs.Metric.value (Inltune_obs.Metric.counter name)

(* Adapt on a platform that never samples, so every compile is a baseline
   compile and the code space records their order. *)
let never_samples plat = { plat with Platform.sample_interval = max_int }

let baseline_vm plat program =
  let vm = Machine.create (Machine.config Machine.Adapt Heuristic.default) plat program in
  ignore (Machine.run_iteration vm : Machine.iteration);
  vm

let compiled vm =
  List.filter_map
    (fun mid -> Option.map (fun c -> (mid, c)) (Machine.compiled_method vm mid))
    (List.init (Array.length vm.Machine.prog.Ir.methods) Fun.id)
  |> List.sort (fun (_, a) (_, b) -> compare a.Compile.addr b.Compile.addr)

(* Replay a VM's compiles, in code-space order, as fresh [Compile.baseline]
   runs on a code space and profile that see the same compiles. *)
let matches_fresh_baselines plat vm =
  let program = vm.Machine.prog in
  let cs = Codespace.create () and profile = Profile.create (Array.length program.Ir.methods) in
  List.for_all
    (fun (mid, (c : Compile.compiled)) ->
      c.Compile.tier = Compile.Baseline
      && fst (Compile.baseline plat cs ~profile program.Ir.methods.(mid)) = c)
    (compiled vm)

let has_static_call (m : Ir.methd) =
  Array.exists
    (fun blk -> Array.exists (function Ir.Call _ -> true | _ -> false) blk.Ir.instrs)
    m.Ir.blocks

let prop_templates_match_fresh =
  QCheck.Test.make ~count:40 ~name:"baseline templates = fresh baseline compiles"
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, ppc) ->
      on_flat @@ fun () ->
      let plat = never_samples (if ppc then Platform.ppc else Platform.x86) in
      let program = Gen_random.program seed in
      let built0 = counter "vm.baseline_templates.built"
      and reused0 = counter "vm.baseline_templates.reused" in
      let vm1 = baseline_vm plat program in
      let built1 = counter "vm.baseline_templates.built"
      and reused1 = counter "vm.baseline_templates.reused" in
      let vm2 = baseline_vm plat program in
      let built2 = counter "vm.baseline_templates.built"
      and reused2 = counter "vm.baseline_templates.reused" in
      let c1 = compiled vm1 and c2 = compiled vm2 in
      let n = List.length c1 in
      matches_fresh_baselines plat vm1
      && matches_fresh_baselines plat vm2
      && built1 - built0 = n
      && reused1 = reused0
      && built2 = built1
      && reused2 - reused1 = n
      && List.for_all2
           (fun (mid, (a : Compile.compiled)) (mid', (b : Compile.compiled)) ->
             let fa = a.Compile.flat and fb = b.Compile.flat in
             mid = mid'
             && fa.Lower.opc == fb.Lower.opc
             && fa.Lower.args == fb.Lower.args
             && (fa.Lower.extra == fb.Lower.extra) = not (has_static_call program.Ir.methods.(mid)))
           c1 c2)

(* The table holds a program's templates only as long as the program
   lives. *)
let test_table_entry_dies_with_program () =
  on_flat @@ fun () ->
  let program_weak = Weak.create 1 and slots_weak = Weak.create 1 in
  (fun () ->
    let program = Gen_random.program 424_242 in
    ignore (baseline_vm Platform.x86 program : Machine.t);
    let slots = Compile.baseline_table Platform.x86 (Facts.of_program program) in
    Alcotest.(check bool) "filled by the VM" true (Array.exists Option.is_some slots);
    Weak.set program_weak 0 (Some program);
    Weak.set slots_weak 0 (Some slots))
    ();
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "program collected" true (Weak.get program_weak 0 = None);
  Alcotest.(check bool) "its templates collected" true (Weak.get slots_weak 0 = None)

(* --- register allocation -------------------------------------------------- *)

let phys_regs_cases = [ 2; 3; 8; 24 ]

let same_allocation ~what m =
  List.iter
    (fun phys_regs ->
      let got = Regalloc.run ~phys_regs m and want = Regalloc_list.run ~phys_regs m in
      if got <> want then
        Alcotest.failf "%s: %s on %d registers: vregs %d/%d pressure %d/%d spilled %d/%d ops %d/%d"
          what m.Ir.mname phys_regs got.Regalloc.vregs want.Regalloc.vregs
          got.Regalloc.max_pressure want.Regalloc.max_pressure got.Regalloc.spilled
          want.Regalloc.spilled got.Regalloc.spill_ops want.Regalloc.spill_ops)
    phys_regs_cases

let prop_regalloc_matches_lists =
  QCheck.Test.make ~count:60 ~name:"regalloc = list-based oracle"
    QCheck.(pair (int_bound (nprograms - 1)) (int_bound 100_000))
    (fun (pi, seed) ->
      let program = program_at pi in
      List.iter
        (same_allocation ~what:(Printf.sprintf "program %d seed %d" pi seed))
        (methods_raw_and_optimized (Rng.create seed) program);
      true)

(* The largest post-inlining methods (SPECjvm98 under the most aggressive
   heuristic), and a method wider than the per-domain scratch, on either
   side of a small one. *)
let test_regalloc_large_methods () =
  let config = Pipeline.opt_config (Heuristic.of_array [| 50; 20; 15; 4000; 400 |]) in
  List.iter
    (fun bm ->
      let program = W.Suites.program bm in
      Array.iter
        (fun m -> same_allocation ~what:bm.W.Suites.bname (fst (Pipeline.run program config m)))
        program.Ir.methods)
    W.Suites.spec;
  let n = 3000 in
  let wide =
    {
      Ir.mid = 0;
      mname = "wide";
      nargs = 1;
      nregs = n;
      blocks =
        [|
          {
            Ir.instrs =
              Array.init (n - 1) (fun i ->
                  if i mod 2 = 0 then Ir.Binop (Ir.Add, i + 1, i, 0) else Ir.Move (i + 1, i / 2));
            term = Ir.Ret (n - 1);
          };
        |];
    }
  in
  same_allocation ~what:"wide" wide;
  same_allocation ~what:"small" (W.Suites.program (W.Suites.find "compress")).Ir.methods.(0);
  same_allocation ~what:"wide again" wide

(* The systhreads of one domain share its scratch and switch at
   safepoints inside a run: two threads allocating different methods at
   once must each still get the oracle's result. *)
let test_regalloc_threads () =
  let cases =
    List.concat_map
      (fun bm ->
        List.concat_map
          (fun m -> List.map (fun phys_regs -> (m, phys_regs)) phys_regs_cases)
          (methods_raw_and_optimized (Rng.create 5) (W.Suites.program bm)))
      W.Suites.spec
    |> List.map (fun (m, phys_regs) -> (m, phys_regs, Regalloc_list.run ~phys_regs m))
    |> Array.of_list
  in
  let n = Array.length cases in
  let runs = Array.make 2 0 and mismatches = Atomic.make 0 in
  (* Long enough for several of the runtime's 50 ms thread switches. *)
  let deadline = Unix.gettimeofday () +. 0.5 in
  let worker t =
    let k = ref (t * n / 2) in
    while Unix.gettimeofday () < deadline do
      let m, phys_regs, want = cases.(!k mod n) in
      (match Regalloc.run ~phys_regs m with
      | got -> if got <> want then Atomic.incr mismatches
      | exception _ -> Atomic.incr mismatches);
      runs.(t) <- runs.(t) + 1;
      incr k
    done
  in
  List.iter Thread.join [ Thread.create worker 0; Thread.create worker 1 ];
  Alcotest.(check bool) "both threads ran" true (runs.(0) > 0 && runs.(1) > 0);
  Alcotest.(check int) "mismatches" 0 (Atomic.get mismatches)

(* --- validation ------------------------------------------------------------- *)

(* [check_exn]'s message summarizes the first error. *)
let summary = function
  | [] -> None
  | { Validate.where; what } :: _ as es ->
    Some (Printf.sprintf "Validate: %d error(s); first: %s: %s" (List.length es) where what)

let outcome p = match Validate.check_exn p with () -> None | exception Invalid_argument s -> Some s

let map_method p mid f =
  { p with Ir.methods = Array.mapi (fun i m -> if i = mid then f m else m) p.Ir.methods }

(* Insert [i] at a random point of a random block of method [mid]. *)
let insert rng p mid i =
  map_method p mid (fun m ->
      let bi = Rng.int rng (Array.length m.Ir.blocks) in
      {
        m with
        Ir.blocks =
          Array.mapi
            (fun j blk ->
              if j <> bi then blk
              else
                let k = Rng.int rng (Array.length blk.Ir.instrs + 1) in
                let is = blk.Ir.instrs in
                {
                  blk with
                  Ir.instrs =
                    Array.concat
                      [ Array.sub is 0 k; [| i |]; Array.sub is k (Array.length is - k) ];
                })
            m.Ir.blocks;
      })

(* Replace the terminator of a random block of method [mid]. *)
let set_term rng p mid term =
  map_method p mid (fun m ->
      let bi = Rng.int rng (Array.length m.Ir.blocks) in
      {
        m with
        Ir.blocks =
          Array.mapi (fun j blk -> if j = bi then { blk with Ir.term = term m } else blk) m.Ir.blocks;
      })

let add_class p vtable =
  let kid = Array.length p.Ir.classes in
  let k = { Ir.kid; kname = "mutant"; vtable } in
  ({ p with Ir.classes = Array.append p.Ir.classes [| k |] }, kid)

(* One mutation that breaks one of [check]'s rules, or (operands) several
   in one instruction or terminator. *)
let mutations =
  [|
    ( "register",
      fun rng p mid -> insert rng p mid (Ir.Const (p.Ir.methods.(mid).Ir.nregs, 1)) );
    ("label", fun rng p mid -> set_term rng p mid (fun m -> Ir.Jump (Array.length m.Ir.blocks)));
    ( "branch operands",
      fun rng p mid ->
        set_term rng p mid (fun m ->
            let n = Array.length m.Ir.blocks in
            Ir.Branch (m.Ir.nregs, n, n + 1)) );
    ( "instruction operands",
      fun rng p mid ->
        let nregs = p.Ir.methods.(mid).Ir.nregs in
        insert rng p mid (Ir.Binop (Ir.Add, nregs, nregs + 1, -1)) );
    ("callee id", fun rng p mid -> insert rng p mid (Ir.Call (0, Array.length p.Ir.methods, [||])));
    ( "arity",
      fun rng p mid ->
        let callee = Rng.int rng (Array.length p.Ir.methods) in
        let nargs = p.Ir.methods.(callee).Ir.nargs + 1 in
        insert rng p mid (Ir.Call (0, callee, Array.make nargs 0)) );
    ( "virtual-slot arity",
      fun rng p mid ->
        let target = Rng.int rng (Array.length p.Ir.methods) in
        let p, _ = add_class p [| target |] in
        let nargs = p.Ir.methods.(target).Ir.nargs in
        insert rng p mid (Ir.CallVirt (0, 0, 0, Array.make nargs 0)) );
    ("class id", fun rng p mid -> insert rng p mid (Ir.Alloc (0, Array.length p.Ir.classes, 1)));
    ("vtable entry", fun _ p _ -> fst (add_class p [| Array.length p.Ir.methods |]));
    ("negative slot", fun rng p mid -> insert rng p mid (Ir.CallVirt (0, -1, 0, [||])));
    ("negative slot count", fun rng p mid -> insert rng p mid (Ir.Alloc (0, 0, -1)));
    ("field offset 0", fun rng p mid -> insert rng p mid (Ir.Load (0, 0, 0)));
    ("main range", fun _ p _ -> { p with Ir.main = Array.length p.Ir.methods });
    ( "main arity",
      fun _ p _ ->
        map_method p p.Ir.main (fun m -> { m with Ir.nargs = 1; nregs = max 1 m.Ir.nregs }) );
    ("method index", fun _ p mid -> map_method p mid (fun m -> { m with Ir.mid = mid + 1 }));
    ( "class index",
      fun _ p _ ->
        let p, kid = add_class p [||] in
        let renumber k = if k.Ir.kid = kid then { k with Ir.kid = kid + 1 } else k in
        { p with Ir.classes = Array.map renumber p.Ir.classes } );
    ("no blocks", fun _ p mid -> map_method p mid (fun m -> { m with Ir.blocks = [||] }));
    ( "nargs over nregs",
      fun _ p mid -> map_method p mid (fun m -> { m with Ir.nargs = m.Ir.nregs + 1 }) );
  |]

(* Valid programs, and programs with up to three mutations, so that
   errors of different rules and methods interleave. *)
let prop_validate_matches_eager =
  QCheck.Test.make ~count:300 ~name:"validate = eager-formatting oracle"
    QCheck.(triple (int_bound (nprograms - 1)) (int_bound 3) (int_bound 100_000))
    (fun (pi, nmutations, seed) ->
      let rng = Rng.create seed in
      let p = ref (program_at pi) in
      for _ = 1 to nmutations do
        let name, mutate = mutations.(Rng.int rng (Array.length mutations)) in
        let mid = Rng.int rng (Array.length !p.Ir.methods) in
        (* A method emptied by "no blocks" takes no instruction. *)
        if Array.length !p.Ir.methods.(mid).Ir.blocks > 0 then begin
          p := mutate rng !p mid;
          if Validate_eager.check !p = [] then
            QCheck.Test.fail_reportf "mutation %s left the program valid" name
        end
      done;
      let want = Validate_eager.check !p in
      Validate.check !p = want && outcome !p = summary want)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lowered_layout;
    Alcotest.test_case "lower rejects a cost or offset that does not fit" `Quick
      test_lower_rejects_wide_fields;
    QCheck_alcotest.to_alcotest prop_templates_match_fresh;
    Alcotest.test_case "baseline table entry dies with its program" `Quick
      test_table_entry_dies_with_program;
    QCheck_alcotest.to_alcotest prop_regalloc_matches_lists;
    Alcotest.test_case "regalloc = list-based oracle on large methods" `Quick
      test_regalloc_large_methods;
    Alcotest.test_case "regalloc from two threads of one domain" `Quick test_regalloc_threads;
    QCheck_alcotest.to_alcotest prop_validate_matches_eager;
  ]
