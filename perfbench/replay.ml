(* Layer-by-layer replay of one simulation, from the outside in.

   A fitness cell is [Fitcache.signature] + [Fitcache.lookup_or_measure]
   around a VM simulation; a simulation is [Machine.run_iteration] calls
   whose first iteration compiles lazily.  The replay calls each of those
   public functions itself under a span, then re-runs every compile the VM
   made: each plan item's [Pass.run] in plan order, [Pipeline.run] as the
   cross-check of that chain, [Compile.baseline] / [Compile.optimizing] on a
   fresh code space, [Regalloc.run] and [Lower.lower].  Under [Opt] the
   recompile is exact (same code bytes as the VM's); under [Adapt] the
   optimizing recompiles read the VM's final profile, so they are timing
   samples rather than exact replays. *)

open Inltune_jir
open Inltune_opt
open Inltune_vm
module Fitcache = Inltune_core.Fitcache

(* Mismatches found while replaying; each one is a failed check. *)
let mismatches : string list ref = ref []
let mismatch fmt = Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt

(* The optimizing tier's pipeline configuration for a finished VM, built the
   way the VM builds it at each compile (Machine's private
   [pipeline_config]), from the VM's final profile. *)
let pipeline_config (cfg : Machine.config) (plat : Platform.t) prog profile =
  let adaptive = cfg.Machine.scenario <> Machine.Opt in
  let hot = adaptive && cfg.Machine.hot_path_enabled in
  let hot_site =
    if not hot then None
    else
      Some
        (fun ~site_owner ~callee ->
          Profile.hot_site profile ~fraction:plat.Platform.hot_edge_fraction
            ~floor:plat.Platform.hot_edge_min ~site_owner ~callee)
  in
  let devirt_oracle =
    if not (adaptive && cfg.Machine.guarded_devirt_enabled) then None
    else
      Some
        (Guarded_devirt.oracle_of_profile ~program:prog ~edge_count:(fun ~site_owner ~callee ->
             Profile.edge_count profile ~site_owner ~callee))
  in
  let view =
    if not hot then None
    else
      Some
        {
          Hotpath.edge_count =
            (fun ~site_owner ~callee -> Profile.edge_count profile ~site_owner ~callee);
          total_calls = (fun () -> Profile.total_calls profile);
        }
  in
  let decider =
    match (cfg.Machine.custom_inliner, cfg.Machine.policy_factory) with
    | Some decide, _ -> Decider.Custom decide
    | None, Some f -> Decider.Policy (f profile)
    | None, None -> Decider.Heuristic cfg.Machine.heuristic
  in
  let plan = cfg.Machine.plan in
  let plan = if cfg.Machine.inline_enabled then plan else Plan.disable "inline" plan in
  let plan = if cfg.Machine.optimize then plan else Plan.without_dataflow plan in
  Pipeline.make ~plan ?hot_site ?devirt_oracle ?profile:view decider

(* Each enabled, applicable plan item's [Pass.run], "iters" times, in plan
   order — the schedule [Pipeline.run] interprets — one span per call with
   the input and output sizes ([Size.of_method]) taken off the clock. *)
let chain_passes ~parent prog (config : Pipeline.config) m =
  let ctx =
    {
      Pass.decider = config.Pipeline.decider;
      hot_site = config.Pipeline.hot_site;
      devirt_oracle = config.Pipeline.devirt_oracle;
      profile = config.Pipeline.profile;
    }
  in
  Array.fold_left
    (fun m (it : Plan.item) ->
      match Pass.find it.Plan.pass with
      | Some p when it.Plan.enabled && p.Pass.applicable ctx ->
        let knob name = Plan.item_knob it name in
        let iters = match Pass.find_knob p "iters" with Some _ -> knob "iters" | None -> 1 in
        let cur = ref m in
        for _ = 1 to iters do
          let size_in = Float.of_int (Size.of_method !cur) in
          let out, _ =
            Spans.with_span ~parent ("opt." ^ p.Pass.name)
              ~attrs:(fun (out, _) ->
                [ ("size_in", size_in); ("size_out", Float.of_int (Size.of_method out)) ])
              (fun _ -> p.Pass.run prog ctx ~knob !cur)
          in
          cur := out
        done;
        !cur
      | _ -> m)
    m config.Pipeline.plan.Plan.items

(* [f ()] plus the minor-heap words it allocated on this domain. *)
let with_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let lower ~parent ~plat ~nmethods ~owner (c : Compile.compiled) =
  let profile = Profile.create nmethods in
  ignore
    (Spans.with_span ~parent "vm.lower" (fun _ ->
         Lower.lower ~plat ~profile ~owner ~quality:c.Compile.quality ~addr:c.Compile.addr
           ~bytes_per_instr:c.Compile.bytes_per_instr ~spill:c.Compile.block_spill_cost
           c.Compile.code)
      : Lower.code)

let compile_attrs instrs (_, words) = [ ("instrs", instrs); ("words", words) ]

let replay_baseline ~plat ~nmethods (m : Ir.methd) =
  let instrs = Float.of_int (Ir.instr_count m) in
  Spans.with_span "vm.compile.replay" ~attrs:(fun () -> [ ("tier", 0.0) ]) (fun rid ->
      let (c, _), _ =
        Spans.with_span ~parent:rid "vm.compile.baseline" ~attrs:(compile_attrs instrs) (fun _ ->
            with_words (fun () ->
                Compile.baseline plat (Codespace.create ()) ~profile:(Profile.create nmethods) m))
      in
      lower ~parent:rid ~plat ~nmethods ~owner:m.Ir.mid c)

let replay_optimizing ~plat ~prog ~config ~nmethods ~expect_bytes (m : Ir.methd) =
  let instrs = Float.of_int (Ir.instr_count m) in
  Spans.with_span "vm.compile.replay" ~attrs:(fun () -> [ ("tier", 1.0) ]) (fun rid ->
      let chained = chain_passes ~parent:rid prog config m in
      let piped, _ = Spans.with_span ~parent:rid "opt.pipeline" (fun _ -> Pipeline.run prog config m) in
      if chained <> piped then
        mismatch "%s/%s: chained Pass.run differs from Pipeline.run" prog.Ir.pname m.Ir.mname;
      let (c, _, _), _ =
        Spans.with_span ~parent:rid "vm.compile.opt" ~attrs:(compile_attrs instrs) (fun _ ->
            with_words (fun () ->
                Compile.optimizing plat (Codespace.create ()) prog config
                  ~profile:(Profile.create nmethods) m))
      in
      (match expect_bytes with
      | Some b when b <> c.Compile.code_bytes ->
        mismatch "%s/%s: replayed code_bytes %d, VM had %d" prog.Ir.pname m.Ir.mname
          c.Compile.code_bytes b
      | _ -> ());
      ignore
        (Spans.with_span ~parent:rid "vm.regalloc" (fun _ ->
             Regalloc.run ~phys_regs:plat.Platform.phys_regs c.Compile.code)
          : Regalloc.result);
      lower ~parent:rid ~plat ~nmethods ~owner:m.Ir.mid c)

(* Re-run every compile the finished VM made, and check the count against
   the simulation's own compile counters. *)
let replay_compiles (cfg : Machine.config) plat prog vm (m : Runner.measurement) =
  let nmethods = Array.length prog.Ir.methods in
  let config = lazy (pipeline_config cfg plat prog (Machine.profile vm)) in
  let compiles = ref 0 in
  Array.iteri
    (fun mid (meth : Ir.methd) ->
      match Machine.compiled_method vm mid with
      | None -> ()
      | Some c ->
        let opt = c.Compile.tier = Compile.Optimized in
        if cfg.Machine.scenario <> Machine.Opt then begin
          replay_baseline ~plat ~nmethods meth;
          incr compiles
        end;
        if opt then begin
          let expect_bytes =
            if cfg.Machine.scenario = Machine.Opt then Some c.Compile.code_bytes else None
          in
          replay_optimizing ~plat ~prog ~config:(Lazy.force config) ~nmethods ~expect_bytes meth;
          incr compiles
        end;
        if c.Compile.tier = Compile.O1 then
          mismatch "%s/%s: O1 compiles are not replayed" prog.Ir.pname meth.Ir.mname)
    prog.Ir.methods;
  let made = m.Runner.baseline_compiles + m.Runner.opt_compiles in
  if !compiles <> made then
    mismatch "%s: replayed %d compiles, the simulation made %d" prog.Ir.pname !compiles made

(* The simulation itself: [iterations] spanned [Machine.run_iteration] calls
   on one VM, assembled into the record [Runner.measure] returns. *)
let simulate ?(parent = 0) ~iterations cfg plat prog =
  Spans.with_span ~parent "vm.simulate"
    ~attrs:(fun (_, (m : Runner.measurement)) ->
      [
        ("steps", Float.of_int m.Runner.steps);
        ("icache_misses", Float.of_int m.Runner.icache_misses);
        ("icache_accesses", Float.of_int m.Runner.icache_accesses);
      ])
    (fun sid ->
      let vm = Machine.create cfg plat prog in
      let iteration () =
        fst
          (Spans.with_span ~parent:sid "vm.iteration"
             ~attrs:(fun ((it : Machine.iteration), words) ->
               [
                 ("compile_cycles", Float.of_int it.Machine.it_compile_cycles);
                 ("steps", Float.of_int it.Machine.it_steps);
                 ("words", words);
               ])
             (fun _ -> with_words (fun () -> Machine.run_iteration vm)))
      in
      let first = iteration () in
      let best = ref max_int and last = ref first in
      for _ = 2 to iterations do
        let it = iteration () in
        best := min !best it.Machine.it_exec_cycles;
        last := it
      done;
      ( vm,
        {
          Runner.total_cycles = first.Machine.it_exec_cycles + first.Machine.it_compile_cycles;
          running_cycles = !best;
          first_exec_cycles = first.Machine.it_exec_cycles;
          first_compile_cycles = first.Machine.it_compile_cycles;
          opt_compiles = Machine.opt_compiles vm;
          baseline_compiles = Machine.baseline_compiles vm;
          code_bytes = Machine.code_bytes vm;
          icache_misses = Machine.icache_misses vm;
          icache_accesses = Machine.icache_accesses vm;
          steps = vm.Machine.steps;
          ret = !last.Machine.ret;
          out_hash = !last.Machine.it_out_hash;
        } ))

(* The program's result and output hash under the tree-walking reference
   interpreter with inlining and the dataflow passes off — an oracle that
   never runs the inliner or the flat VM.  Memoized per program digest. *)
let references : (string, int * int) Hashtbl.t = Hashtbl.create 16

let reference plat prog =
  let key = Fitcache.program_digest prog in
  match Hashtbl.find_opt references key with
  | Some r -> r
  | None ->
    let was = Machine.reference_enabled () in
    Machine.set_reference true;
    let cfg = Machine.config ~inline_enabled:false ~optimize:false Machine.Opt Heuristic.default in
    let it = Fun.protect ~finally:(fun () -> Machine.set_reference was) (fun () ->
        Machine.run_iteration (Machine.create cfg plat prog))
    in
    let r = (it.Machine.ret, it.Machine.it_out_hash) in
    Hashtbl.replace references key r;
    r

(* One fitness cell that missed: the signature, then the cache lookup whose
   thunk is the spanned simulation, then the compiles.  The caller clears
   the in-memory cache first so the lookup misses again. *)
let cell ~scenario ~platform ~heuristic ~plan ~iterations prog =
  Spans.with_span "core.cell.replay" (fun cid ->
      ignore
        (Spans.with_span ~parent:cid "core.fitcache.signature" (fun _ ->
             Fitcache.signature ~scenario ~heuristic ~inline_enabled:true ~plan prog)
          : string);
      let cfg = Machine.config ~inline_enabled:true ~plan scenario heuristic in
      let vm = ref None in
      let m =
        Spans.with_span ~parent:cid "core.fitcache.lookup" (fun lid ->
            Fitcache.lookup_or_measure ~scenario ~platform ~heuristic ~inline_enabled:true ~plan
              ~iterations ~program:prog (fun () ->
                let v, m = simulate ~parent:lid ~iterations cfg platform prog in
                vm := Some v;
                m))
      in
      match !vm with
      | Some v -> replay_compiles cfg platform prog v m
      | None -> mismatch "%s: replayed cell hit the fitness cache" prog.Ir.pname)
