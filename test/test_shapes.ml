open Inltune_jir
open Inltune_vm
open Inltune_opt
module W = Inltune_workloads

(* Per-benchmark structural characterizations.  These lock in the calibrated
   *shape* of each workload — the properties the paper's experiments depend
   on.  If a generator edit silently changes a benchmark's character (say,
   jess stops being I-cache-bound), these tests fail rather than the
   experiment tables quietly drifting. *)

let program name = W.Suites.program (W.Suites.find name)

let measure ?(scenario = Machine.Opt) ?(heuristic = Heuristic.default) name =
  Runner.measure (Machine.config scenario heuristic) Platform.x86 (program name)

let method_count name = Array.length (program name).Ir.methods

let has_method name mname =
  Array.exists (fun m -> m.Ir.mname = mname) (program name).Ir.methods

(* -- suite-level shapes -- *)

let test_method_count_bands () =
  (* SPEC programs are tens of methods; DaCapo programs are hundreds. *)
  List.iter
    (fun bm ->
      let n = method_count bm.W.Suites.bname in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d methods in SPEC band" bm.W.Suites.bname n)
        true (n >= 15 && n < 260))
    W.Suites.spec;
  List.iter
    (fun bm ->
      let n = method_count bm.W.Suites.bname in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d methods in DaCapo band" bm.W.Suites.bname n)
        true (n >= 120 && n < 600))
    W.Suites.dacapo

let test_step_budgets () =
  (* Simulations stay within the budget the GA's evaluation cost assumes. *)
  List.iter
    (fun bm ->
      let m = measure bm.W.Suites.bname in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d steps in range" bm.W.Suites.bname m.Runner.steps)
        true
        (m.Runner.steps > 20_000 && m.Runner.steps < 2_000_000))
    W.Suites.all

(* -- per-benchmark characters -- *)

let test_compress_prefers_opt () =
  let o = measure ~scenario:Machine.Opt "compress" in
  let a = measure ~scenario:Machine.Adapt "compress" in
  Alcotest.(check bool) "Opt beats Adapt on compress (paper Fig. 2a)" true
    (o.Runner.total_cycles < a.Runner.total_cycles)

let test_jess_prefers_adapt () =
  let o = measure ~scenario:Machine.Opt "jess" in
  let a = measure ~scenario:Machine.Adapt "jess" in
  Alcotest.(check bool) "Adapt beats Opt on jess (paper Fig. 2b)" true
    (a.Runner.total_cycles < o.Runner.total_cycles)

let test_jess_depth_default_bad_under_opt () =
  (* Paper: depth 0 is the best Opt setting for jess; the default (5) is
     substantially worse. *)
  let at_depth d =
    (measure ~heuristic:(Heuristic.with_depth Heuristic.default d) "jess").Runner.total_cycles
  in
  Alcotest.(check bool) "depth 0 beats depth 5 for jess under Opt" true (at_depth 0 < at_depth 5)

let test_compress_hot_chain_inlined () =
  (* compress's hot helpers are consumed by the inliner under the default
     heuristic: the compiled hot code should contain fewer calls than the
     source. *)
  let p = program "compress" in
  let vm = Machine.create (Machine.config Machine.Opt Heuristic.default) Platform.x86 p in
  ignore (Machine.run_iteration vm);
  let byte_mid =
    (Array.to_list p.Ir.methods |> List.find (fun m -> m.Ir.mname = "compress_byte")).Ir.mid
  in
  match Machine.compiled_method vm byte_mid with
  | Some c ->
    (* The direct helpers (next_byte / hash / probe / emit_code) are all
       within CALLEE_MAX at the defaults, so none of their call sites may
       survive in the compiled hot method (deeper DAG calls may remain). *)
    let direct_targets =
      Array.to_list p.Ir.methods
      |> List.filter (fun m ->
             List.mem m.Ir.mname [ "next_byte"; "hash"; "probe"; "emit_code" ])
      |> List.map (fun m -> m.Ir.mid)
    in
    let survivors =
      Array.fold_left
        (fun acc blk ->
          Array.fold_left
            (fun acc i ->
              match i with
              | Ir.Call (_, t, _) when List.mem t direct_targets -> acc + 1
              | _ -> acc)
            acc blk.Ir.instrs)
        0 c.Compile.code.Ir.blocks
    in
    Alcotest.(check int) "direct helpers all inlined" 0 survivors
  | None -> Alcotest.fail "compress_byte never compiled"

let test_javac_methods_are_large () =
  let p = program "javac" in
  let big =
    Array.exists
      (fun m -> String.length m.Ir.mname >= 5 && String.sub m.Ir.mname 0 5 = "parse"
                && Size.of_method m > Heuristic.default.Heuristic.callee_max_size * 3)
      p.Ir.methods
  in
  Alcotest.(check bool) "parser methods exceed CALLEE_MAX several times over" true big

let test_raytrace_has_tiny_hot_helpers () =
  let p = program "raytrace" in
  let tiny name =
    let m = Array.to_list p.Ir.methods |> List.find (fun m -> m.Ir.mname = name) in
    Size.of_method m < Heuristic.default.Heuristic.always_inline_size
  in
  Alcotest.(check bool) "v_dot always-inlined" true (tiny "v_dot");
  Alcotest.(check bool) "v_scale always-inlined" true (tiny "v_scale")

let test_mpegaudio_benefits_from_folding () =
  (* The indirect benefit: with the dataflow passes disabled, mpegaudio's
     running time worsens even with identical inlining. *)
  let on = measure "mpegaudio" in
  let off =
    Runner.measure
      (Machine.config ~optimize:false Machine.Opt Heuristic.default)
      Platform.x86 (program "mpegaudio")
  in
  Alcotest.(check bool) "optimizations carry real benefit" true
    (on.Runner.running_cycles < off.Runner.running_cycles)

let test_dacapo_has_guarded_dags () =
  List.iter
    (fun (bench, dag) ->
      Alcotest.(check bool) (bench ^ " has its DAG") true (has_method bench (dag ^ "_l0_n0")))
    [
      ("jython", "py_obj"); ("pseudojbb", "jbb_item"); ("fop", "fop_resolve");
      ("ipsixql", "xql_path"); ("antlr", "antlr_pred"); ("pmd", "pmd_sym"); ("ps", "ps_gstate");
    ]

let test_antlr_most_compile_bound () =
  (* antlr has the paper's biggest total-time win; structurally that requires
     it to be the most compile-dominated program in the suite under Opt. *)
  let share name =
    let m = measure name in
    Float.of_int m.Runner.first_compile_cycles /. Float.of_int m.Runner.total_cycles
  in
  let antlr = share "antlr" in
  Alcotest.(check bool) "antlr compile share > 80%" true (antlr > 0.8);
  List.iter
    (fun bm ->
      Alcotest.(check bool)
        (Printf.sprintf "antlr more compile-bound than %s" bm.W.Suites.bname)
        true
        (antlr >= share bm.W.Suites.bname))
    W.Suites.spec

let test_monomorphic_sites_guarded_under_adapt () =
  List.iter
    (fun name ->
      let p = program name in
      let vm = Machine.create (Machine.config Machine.Adapt Heuristic.default) Platform.x86 p in
      for _ = 1 to 2 do
        ignore (Machine.run_iteration vm)
      done;
      let guarded =
        Array.exists
          (fun (m : Ir.methd) ->
            match Machine.compiled_method vm m.Ir.mid with
            | Some { Compile.tier = Compile.Optimized; code; _ } ->
              Array.exists
                (fun blk ->
                  Array.exists (fun i -> match i with Ir.ClassOf _ -> true | _ -> false)
                    blk.Ir.instrs)
                code.Ir.blocks
            | _ -> false)
          p.Ir.methods
      in
      Alcotest.(check bool) (name ^ ": guard emitted somewhere hot") true guarded)
    [ "ipsixql" ]

let test_x86_spills_more_than_ppc () =
  (* 8 vs 24 architectural registers: aggressive inlining must spill more on
     x86 for the same method. *)
  let p = program "jess" in
  let hot = Array.to_list p.Ir.methods |> List.find (fun m -> m.Ir.mname = "rule_match0") in
  let inlined, _ =
    Engine.run ~program:p
      ~policy:(Policy.of_heuristic (Heuristic.of_array [| 50; 20; 15; 4000; 400 |]))
      hot
  in
  let x86 = Regalloc.run ~phys_regs:Platform.x86.Platform.phys_regs inlined in
  let ppc = Regalloc.run ~phys_regs:Platform.ppc.Platform.phys_regs inlined in
  Alcotest.(check bool) "x86 spills more" true (x86.Regalloc.spilled > ppc.Regalloc.spilled)

let suite =
  [
    ("method counts per suite band", `Quick, test_method_count_bands);
    ("step budgets", `Slow, test_step_budgets);
    ("compress prefers Opt", `Quick, test_compress_prefers_opt);
    ("jess prefers Adapt", `Quick, test_jess_prefers_adapt);
    ("jess: depth 0 beats the default under Opt", `Quick, test_jess_depth_default_bad_under_opt);
    ("compress: hot chain is inlined", `Quick, test_compress_hot_chain_inlined);
    ("javac: parser methods are large", `Quick, test_javac_methods_are_large);
    ("raytrace: tiny hot helpers", `Quick, test_raytrace_has_tiny_hot_helpers);
    ("mpegaudio: folding matters", `Quick, test_mpegaudio_benefits_from_folding);
    ("DaCapo programs carry guarded DAGs", `Quick, test_dacapo_has_guarded_dags);
    ("antlr is the most compile-bound", `Slow, test_antlr_most_compile_bound);
    ("monomorphic sites get guards under Adapt", `Quick, test_monomorphic_sites_guarded_under_adapt);
    ("x86 spills more than PPC", `Quick, test_x86_spills_more_than_ppc);
  ]
