open Inltune_jir
open Inltune_opt
module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event
module Prof = Inltune_obs.Prof
module Metric = Inltune_obs.Metric

(* The virtual machine: a cycle-counting interpreter over compiled JIR plus
   the adaptive optimization system.

   Compilation is lazy, on first invocation of a method, as in Jikes RVM:
   - Opt scenario: every method is compiled by the optimizing compiler
     (pipeline with the static heuristic; no hot-call-site path);
   - Adapt scenario: methods start baseline-compiled; a deterministic
     cycle-driven sampler attributes samples to the executing method, and a
     method that accumulates enough samples is recompiled by the optimizing
     compiler, at which point profiled call edges classify sites as hot for
     the Fig. 4 heuristic path.

   Cycle accounting: [exec_cycles] is pure interpretation (instruction costs
   scaled by the tier's code-quality multiplier, plus I-cache miss
   penalties); [compile_cycles] accrues on every compilation.  Both are part
   of "total time"; the second iteration's exec cycles alone are "running
   time", per the paper's methodology. *)

exception Trap of string
exception Out_of_fuel

(* [INLTUNE_VM_REFERENCE=1] selects the tree-walking reference interpreter
   instead of the flat dispatch loop; both must agree on every observable
   bit (the differential suite and check.sh enforce this). *)
let reference_mode =
  ref
    (match Sys.getenv_opt "INLTUNE_VM_REFERENCE" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let set_reference b = reference_mode := b
let reference_enabled () = !reference_mode

type scenario =
  | Opt     (* optimize everything on first invocation *)
  | Adapt   (* baseline first, one-step promotion to the optimizer *)
  | Ladder  (* extension: baseline -> O1 -> O2 staged recompilation *)

let scenario_name = function Opt -> "opt" | Adapt -> "adapt" | Ladder -> "ladder"

type config = {
  scenario : scenario;
  heuristic : Heuristic.t;
  inline_enabled : bool;  (* false = the Fig. 1 "no inlining" baseline *)
  optimize : bool;        (* false = ablation: inline without cleanup passes *)
  icache_enabled : bool;  (* false = ablation: no code-bloat penalty *)
  hot_path_enabled : bool; (* false = ablation: Adapt uses only Fig. 3 tests *)
  guarded_devirt_enabled : bool; (* false = ablation: no guarded devirtualization *)
  custom_inliner : Pipeline.site_decision option;
      (* per-site decision override (e.g. the knapsack baseline) *)
  policy_factory : (Profile.t -> Policy.t) option;
      (* first-class inlining policy built against the VM's live profile at
         each (re)compile, so feature-driven policies (lib/policy) see
         current call-edge hotness; [custom_inliner] wins if both are set *)
  plan : Plan.t;          (* optimizing-tier pass schedule *)
  fuel : int;             (* interpreter step budget per iteration *)
}

let config ?(inline_enabled = true) ?(optimize = true) ?(icache_enabled = true)
    ?(hot_path_enabled = true) ?(guarded_devirt_enabled = true) ?custom_inliner
    ?policy_factory ?(plan = Plan.default) ?(fuel = 100_000_000) scenario heuristic =
  {
    scenario;
    heuristic;
    inline_enabled;
    optimize;
    icache_enabled;
    hot_path_enabled;
    guarded_devirt_enabled;
    custom_inliner;
    policy_factory;
    plan;
    fuel;
  }

type t = {
  prog : Ir.program;
  facts : Facts.t;        (* [prog]'s fact-table entry, looked up once *)
  plat : Platform.t;
  cfg : config;
  icache : Icache.t;
  codespace : Codespace.t;
  compiled : Compile.compiled option array;
  profile : Profile.t;
  mutable heap : int array;
  mutable heap_len : int;
  mutable exec_cycles : int;
  mutable compile_cycles : int;
  mutable steps : int;
  mutable fuel_left : int;
  mutable next_sample_at : int;
  mutable out_hash : int;
  outputs : int Inltune_support.Vec.t;
  mutable opt_compiles : int;
  mutable o1_compiles : int;
  mutable baseline_compiles : int;
  mutable call_depth : int;
  frames : Lower.code Inltune_support.Frames.t;
  mutable frames_reused : int;
      (* frame pushes served without growing the pool, flushed to the
         vm.frames_reused counter once per iteration *)
  (* Wall-clock seconds spent inside the compilers, accumulated only while
     Prof is enabled.  Profiler bookkeeping, never part of cycle accounting. *)
  mutable compile_wall_s : float;
  code_keys : string array option;
      (* per-method Codecache keys, indexed by mid; consulted by the Opt
         scenario's compiles only *)
  baseline_slots : Compile.template option array;
      (* this program's per-platform baseline templates, looked up once in
         [create] (empty under Opt, which never baseline-compiles) *)
  mutable templates_built : int;
  mutable templates_reused : int;
      (* baseline compiles that built their template / found it in the
         table, flushed to vm.baseline_templates.* once per iteration *)
  mutable precomputed : (Ir.methd * Pipeline.stats) list;
      (* pipeline outputs handed over for the next optimizing compiles *)
  record : (recompile -> unit) option;
}

(* One optimizing compile as the trajectory cache stores it: [node] is the
   method id, the profile's total call count and one [Packed_edge] per
   nonzero edge whose owner is in the method's reach ([None] when an edge
   does not fit the packed range); [output] is what the pipeline
   produced. *)
and recompile = { node : int array option; output : Ir.methd * Pipeline.stats }

let max_call_depth = 8_000

let create ?code_keys ?(precomputed = []) ?record cfg (plat : Platform.t) prog =
  let facts = Facts.of_program prog in
  Facts.validate facts;
  (match code_keys with
  | Some keys when Array.length keys <> Array.length prog.Ir.methods ->
    invalid_arg "Machine.create: one code key per method"
  | Some _ | None -> ());
  {
    prog;
    facts;
    plat;
    cfg;
    icache = Icache.create ~bytes:plat.Platform.icache_bytes ~line_bytes:plat.Platform.line_bytes;
    codespace = Codespace.create ();
    compiled = Array.make (Array.length prog.Ir.methods) None;
    profile = Profile.create (Array.length prog.Ir.methods);
    heap = Array.make 4096 0;
    heap_len = 0;
    exec_cycles = 0;
    compile_cycles = 0;
    steps = 0;
    fuel_left = cfg.fuel;
    next_sample_at = plat.Platform.sample_interval;
    out_hash = 0;
    outputs = Inltune_support.Vec.create ();
    opt_compiles = 0;
    o1_compiles = 0;
    baseline_compiles = 0;
    call_depth = 0;
    frames = Inltune_support.Frames.create ~dummy:Lower.dummy ();
    frames_reused = 0;
    compile_wall_s = 0.0;
    code_keys;
    baseline_slots =
      (match cfg.scenario with
      | Opt -> [||]
      | Adapt | Ladder -> Compile.baseline_table plat facts);
    templates_built = 0;
    templates_reused = 0;
    precomputed;
    record;
  }

(* --- compilation ------------------------------------------------------- *)

(* The legacy ablation flags are plan edits: no inlining disables the
   inline item, no optimization disables the dataflow items. *)
let optimizing_plan cfg =
  let plan = cfg.plan in
  let plan = if cfg.inline_enabled then plan else Plan.disable "inline" plan in
  if cfg.optimize then plan else Plan.without_dataflow plan

(* Everything an optimizing compile reads of the profile goes through one
   window: the hot-site test, the guarded-devirtualization oracle and the
   hot-path strategy's view are all built from its [edge_count] and
   [total_calls].  The VM passes a window onto its live profile; the
   trajectory cache passes one rebuilt from a stored [recompile] node. *)
let pipeline_config cfg (plat : Platform.t) facts decider (window : Hotpath.view) =
  let adaptive = cfg.scenario <> Opt in
  let hot_site =
    if not (adaptive && cfg.hot_path_enabled) then None
    else
      Some
        (fun ~site_owner ~callee ->
          window.Hotpath.edge_count ~site_owner ~callee
          >= Profile.hot_threshold ~fraction:plat.Platform.hot_edge_fraction
               ~floor:plat.Platform.hot_edge_min ~total_calls:(window.Hotpath.total_calls ()))
  in
  let devirt_oracle =
    if not (adaptive && cfg.guarded_devirt_enabled) then None
    else
      Some
        (Guarded_devirt.oracle_of_profile ~program:(Facts.program facts)
           ~edge_count:window.Hotpath.edge_count)
  in
  (* The hot-path strategy's window: same gating as [hot_site] — adaptive
     scenarios only, honoring the hot-path ablation.  Without it the
     inline_hot pass is structurally inapplicable. *)
  let profile = if adaptive && cfg.hot_path_enabled then Some window else None in
  Pipeline.make ~plan:(optimizing_plan cfg) ?hot_site ?devirt_oracle ?profile ~facts decider

(* One decider per compile, same precedence the three legacy fields had:
   custom closure over policy over heuristic.  A policy factory is applied
   to the live profile here, so feature-driven policies see current
   call-edge hotness at every (re)compile. *)
let live_pipeline_config vm =
  let decider =
    match (vm.cfg.custom_inliner, vm.cfg.policy_factory) with
    | Some decide, _ -> Decider.Custom decide
    | None, Some f -> Decider.Policy (f vm.profile)
    | None, None -> Decider.Heuristic vm.cfg.heuristic
  in
  pipeline_config vm.cfg vm.plat vm.facts decider
    {
      Hotpath.edge_count =
        (fun ~site_owner ~callee -> Profile.edge_count vm.profile ~site_owner ~callee);
      total_calls = (fun () -> Profile.total_calls vm.profile);
    }

(* --- trajectory recording ---------------------------------------------- *)

(* reach(m): [m] and every method [m] reaches through static calls and
   through every class's vtable entry at a virtual call's slot, over the
   original bodies.  An optimizing compile of [m] only asks the profile
   about edges whose owner is in reach(m): the inliners' sites belong to
   [m] or to a body they inlined, guarded devirtualization asks about [m]'s
   own sites, and every body that can be inlined — devirtualized targets
   included — is in reach(m).  One byte per method, 1 when reached. *)
let reach_key =
  Facts.key ~name:"reach" (fun f ->
      let prog = Facts.program f in
      let n = Array.length prog.Ir.methods in
      let succs =
        Array.map
          (fun m ->
            let out = ref [] in
            Array.iter
              (fun blk ->
                Array.iter
                  (function
                    | Ir.Call (_, callee, _) -> out := callee :: !out
                    | Ir.CallVirt (_, slot, _, _) ->
                      Array.iter
                        (fun k ->
                          if slot < Array.length k.Ir.vtable then out := k.Ir.vtable.(slot) :: !out)
                        prog.Ir.classes
                    | _ -> ())
                  blk.Ir.instrs)
              m.Ir.blocks;
            !out)
          prog.Ir.methods
      in
      Array.init n (fun root ->
          let seen = Bytes.make n '\000' in
          let rec visit m =
            if Bytes.get seen m = '\000' then begin
              Bytes.set seen m '\001';
              List.iter visit succs.(m)
            end
          in
          visit root;
          seen))

let reach facts mid = (Facts.get facts reach_key).(mid)
let in_reach reach owner = Bytes.get reach owner <> '\000'

(* A recorded edge in one int: the key in the bits above 31, the count
   in the 31 below.  Packing checks both ranges, so a key or count of
   2^31 or more (or of [limit] or more, lowered by [with_limit] in tests)
   is refused rather than folded into its neighbour's bits.  Keys stay in
   the high bits, so packed edges sorted by key are sorted as ints. *)
module Packed_edge = struct
  let bits = 31
  let limit = Atomic.make (1 lsl bits)

  let pack ~key ~count =
    let l = Atomic.get limit in
    if key >= 0 && key < l && count >= 0 && count < l then Some ((key lsl bits) lor count)
    else None

  let key p = p lsr bits
  let count p = p land ((1 lsl bits) - 1)

  let with_limit n f =
    if n < 0 || n > 1 lsl bits then invalid_arg "Machine.Packed_edge.with_limit";
    let old = Atomic.exchange limit n in
    Fun.protect ~finally:(fun () -> Atomic.set limit old) f
end

(* The node of an optimizing compile of [mid] about to run now, or [None]
   when one of its edges cannot be packed. *)
let snapshot vm mid =
  let reach = reach vm.facts mid in
  let edges = Profile.owned_edges vm.profile ~owned:(in_reach reach) in
  let pairs = Array.length edges / 2 in
  let node = Array.make (2 + pairs) 0 in
  node.(0) <- mid;
  node.(1) <- Profile.total_calls vm.profile;
  let rec fill i =
    if i = pairs then Some node
    else
      match Packed_edge.pack ~key:edges.(2 * i) ~count:edges.((2 * i) + 1) with
      | Some p ->
        node.(2 + i) <- p;
        fill (i + 1)
      | None -> None
  in
  fill 0

exception Outside_reach of { mid : Ir.mid; site_owner : Ir.mid }

(* The window a stored node answers: exact for every edge whose owner is in
   reach(mid), an [Outside_reach] raise for any other. *)
let node_view facts node =
  let mid = node.(0) and total = node.(1) in
  let reach = reach facts mid in
  let n = Array.length (Facts.program facts).Ir.methods in
  let edge_count ~site_owner ~callee =
    if not (in_reach reach site_owner) then raise (Outside_reach { mid; site_owner });
    let key = (site_owner * n) + callee in
    let rec search lo hi =
      if lo >= hi then 0
      else
        let i = (lo + hi) / 2 in
        let k = Packed_edge.key node.(i) in
        if k = key then Packed_edge.count node.(i)
        else if k < key then search (i + 1) hi
        else search lo i
    in
    search 2 (Array.length node)
  in
  { Hotpath.edge_count; total_calls = (fun () -> total) }

let trace_compile vm mid ~tier ~cycles ~recompile extra (c : Compile.compiled) =
  Trace.emit "vm.compile"
    ~fields:
      ([
         ("prog", Event.Str vm.prog.Ir.pname);
         ("method", Event.Str vm.prog.Ir.methods.(mid).Ir.mname);
         ("tier", Event.Str tier);
         ("cycles", Event.Int cycles);
         ("code_bytes", Event.Int c.Compile.code_bytes);
         ("spills", Event.Int c.Compile.spills);
         ("recompile", Event.Bool recompile);
       ]
      @ extra)

let note_compile_wall vm dt = vm.compile_wall_s <- vm.compile_wall_s +. dt

(* Under [Opt] every method is optimized exactly once, with no profile
   input, so given a per-method content key the VM-independent front can
   come from the process-wide [Codecache].  A hit skips the pipeline and
   register allocation; the emit tail still runs against this VM's code
   space and profile, so addresses, I-cache tags and profile site ids come
   out exactly as from a fresh compile.  The reference interpreter always
   compiles fresh. *)
let opt_front vm m =
  let compile () = Compile.optimizing_front vm.plat vm.prog (live_pipeline_config vm) m in
  match vm.code_keys with
  | Some keys when vm.cfg.scenario = Opt && not !reference_mode ->
    Codecache.find_or_compile Codecache.global keys.(m.Ir.mid) compile
  | Some _ | None -> compile ()

(* The next handed-over pipeline output, if any, stands in for the
   pipeline; it must be for this method.  Otherwise a recording VM notes
   the compile's node and output. *)
let opt_front_recorded vm m =
  match vm.precomputed with
  | ((code, _) as out) :: rest ->
    if code.Ir.mid <> m.Ir.mid then invalid_arg "Machine: precomputed output for another method";
    vm.precomputed <- rest;
    Compile.front_of_pipeline vm.plat out
  | [] -> (
    match vm.record with
    | None -> opt_front vm m
    | Some record ->
      let node = snapshot vm m.Ir.mid in
      let f = opt_front vm m in
      record { node; output = (f.Compile.o_code, f.Compile.o_stats) };
      f)

let compile_opt vm mid =
  let m = vm.prog.Ir.methods.(mid) in
  let recompile = vm.compiled.(mid) <> None in
  let c, cycles, stats =
    Prof.span "vm.compile" ~on_time:(note_compile_wall vm) (fun () ->
        Compile.optimizing_emit vm.plat vm.codespace ~profile:vm.profile ~owner:m.Ir.mid
          (opt_front_recorded vm m))
  in
  vm.compile_cycles <- vm.compile_cycles + cycles;
  vm.opt_compiles <- vm.opt_compiles + 1;
  vm.compiled.(mid) <- Some c;
  if Trace.enabled () then
    trace_compile vm mid ~tier:"opt" ~cycles ~recompile
      [
        ("size_before", Event.Int stats.Pipeline.size_before);
        ("size_peak", Event.Int stats.Pipeline.size_peak);
        ("size_after", Event.Int stats.Pipeline.size_after);
        ("sites_inlined", Event.Int stats.Pipeline.sites_inlined);
      ]
      c;
  c

let compile_o1 vm mid =
  let recompile = vm.compiled.(mid) <> None in
  let c, cycles =
    Prof.span "vm.compile" ~on_time:(note_compile_wall vm) (fun () ->
        Compile.o1 vm.plat vm.codespace ~facts:vm.facts vm.prog ~profile:vm.profile
          vm.prog.Ir.methods.(mid))
  in
  vm.compile_cycles <- vm.compile_cycles + cycles;
  vm.o1_compiles <- vm.o1_compiles + 1;
  vm.compiled.(mid) <- Some c;
  if Trace.enabled () then trace_compile vm mid ~tier:"o1" ~cycles ~recompile [] c;
  c

(* The baseline tier's code is the method itself, so its template comes
   from the program's shared table, built by the first VM to need it; only
   the instantiation (code-space address, profile site ids) is per VM.  The
   reference interpreter always compiles fresh. *)
let baseline_template vm mid =
  let build () = Compile.baseline_template vm.plat vm.prog.Ir.methods.(mid) in
  if !reference_mode then build ()
  else
    match vm.baseline_slots.(mid) with
    | Some t ->
      vm.templates_reused <- vm.templates_reused + 1;
      t
    | None ->
      let t = build () in
      vm.baseline_slots.(mid) <- Some t;
      vm.templates_built <- vm.templates_built + 1;
      t

let compile_baseline vm mid =
  let recompile = vm.compiled.(mid) <> None in
  let c, cycles =
    Prof.span "vm.compile" ~on_time:(note_compile_wall vm) (fun () ->
        Compile.baseline_of_template vm.codespace ~profile:vm.profile (baseline_template vm mid))
  in
  vm.compile_cycles <- vm.compile_cycles + cycles;
  vm.baseline_compiles <- vm.baseline_compiles + 1;
  vm.compiled.(mid) <- Some c;
  if Trace.enabled () then trace_compile vm mid ~tier:"baseline" ~cycles ~recompile [] c;
  c

let get_code vm mid =
  match vm.compiled.(mid) with
  | Some c -> c
  | None -> (
    match vm.cfg.scenario with
    | Opt -> compile_opt vm mid
    | Adapt | Ladder -> compile_baseline vm mid)

(* --- adaptive sampling -------------------------------------------------- *)

let maybe_sample vm mid =
  if vm.exec_cycles >= vm.next_sample_at then begin
    vm.next_sample_at <- vm.next_sample_at + vm.plat.Platform.sample_interval;
    match vm.cfg.scenario with
    | Opt -> ()
    | Adapt ->
      Profile.record_sample vm.profile mid;
      if Profile.samples vm.profile mid >= vm.plat.Platform.hot_method_samples then begin
        match vm.compiled.(mid) with
        | Some { Compile.tier = Compile.Baseline; _ } -> ignore (compile_opt vm mid : Compile.compiled)
        | Some _ | None -> ()
      end
    | Ladder ->
      (* Staged recompilation: hot -> O1, very hot -> the full optimizer. *)
      Profile.record_sample vm.profile mid;
      let samples = Profile.samples vm.profile mid in
      let hot = vm.plat.Platform.hot_method_samples in
      (match vm.compiled.(mid) with
      | Some { Compile.tier = Compile.Baseline; _ } when samples >= hot ->
        ignore (compile_o1 vm mid : Compile.compiled)
      | Some { Compile.tier = Compile.O1; _ } when samples >= 3 * hot ->
        ignore (compile_opt vm mid : Compile.compiled)
      | Some _ | None -> ())
  end

(* --- heap ---------------------------------------------------------------- *)

let heap_alloc vm kid slots =
  let need = vm.heap_len + slots + 1 in
  if need > Array.length vm.heap then begin
    let heap' = Array.make (max need (2 * Array.length vm.heap)) 0 in
    Array.blit vm.heap 0 heap' 0 vm.heap_len;
    vm.heap <- heap'
  end;
  let addr = vm.heap_len in
  vm.heap.(addr) <- kid;
  for i = addr + 1 to addr + slots do
    vm.heap.(i) <- 0
  done;
  vm.heap_len <- need;
  addr

let heap_get vm a =
  if a < 0 || a >= vm.heap_len then raise (Trap "heap load out of range");
  vm.heap.(a)

let heap_set vm a v =
  if a < 0 || a >= vm.heap_len then raise (Trap "heap store out of range");
  vm.heap.(a) <- v

(* --- interpreter --------------------------------------------------------- *)

let mix h v =
  let x = h lxor (v * 0x9E3779B1) in
  (x lsl 7) lxor (x lsr 9) lxor x

let rec exec_reference vm mid (args : int array) =
  vm.call_depth <- vm.call_depth + 1;
  if vm.call_depth > max_call_depth then raise (Trap "simulated call stack overflow");
  Profile.record_invocation vm.profile mid;
  let c = get_code vm mid in
  let code = c.Compile.code in
  let regs = Array.make code.Ir.nregs 0 in
  Array.blit args 0 regs 0 (Array.length args);
  let plat = vm.plat in
  let q = c.Compile.quality in
  let icache_on = vm.cfg.icache_enabled in
  let miss_penalty = plat.Platform.miss_penalty in
  let touch off =
    if icache_on && Icache.access vm.icache (c.Compile.addr + (off * c.Compile.bytes_per_instr))
    then vm.exec_cycles <- vm.exec_cycles + miss_penalty
  in
  let blocks = code.Ir.blocks in
  let spill_cost = c.Compile.block_spill_cost in
  let rec loop bi =
    (* Fuel is also consumed per block so an empty loop (possible after DCE)
       cannot spin without ever hitting the per-instruction check. *)
    vm.fuel_left <- vm.fuel_left - 1;
    if vm.fuel_left <= 0 then raise Out_of_fuel;
    if spill_cost > 0 then vm.exec_cycles <- vm.exec_cycles + spill_cost;
    let blk = blocks.(bi) in
    let base_off = c.Compile.block_offsets.(bi) in
    let instrs = blk.Ir.instrs in
    let n = Array.length instrs in
    for k = 0 to n - 1 do
      vm.steps <- vm.steps + 1;
      vm.fuel_left <- vm.fuel_left - 1;
      if vm.fuel_left <= 0 then raise Out_of_fuel;
      touch (base_off + k);
      maybe_sample vm mid;
      let i = instrs.(k) in
      vm.exec_cycles <- vm.exec_cycles + (q * Platform.instr_cost plat i);
      match i with
      | Ir.Const (d, v) -> regs.(d) <- v
      | Ir.Move (d, s) -> regs.(d) <- regs.(s)
      | Ir.Binop (op, d, a, b) -> regs.(d) <- Ir.eval_binop op regs.(a) regs.(b)
      | Ir.Cmp (op, d, a, b) -> regs.(d) <- Ir.eval_cmp op regs.(a) regs.(b)
      | Ir.Load (d, o, off) -> regs.(d) <- heap_get vm (regs.(o) + off)
      | Ir.Store (o, off, s) -> heap_set vm (regs.(o) + off) regs.(s)
      | Ir.LoadIdx (d, o, idx) -> regs.(d) <- heap_get vm (regs.(o) + 1 + regs.(idx))
      | Ir.StoreIdx (o, idx, s) -> heap_set vm (regs.(o) + 1 + regs.(idx)) regs.(s)
      | Ir.ClassOf (d, o) -> regs.(d) <- heap_get vm regs.(o)
      | Ir.Alloc (d, kid, slots) -> regs.(d) <- heap_alloc vm kid slots
      | Ir.Call (d, callee, cargs) ->
        Profile.record_call vm.profile ~site_owner:mid ~callee;
        let argv = Array.map (fun r -> regs.(r)) cargs in
        regs.(d) <- exec_reference vm callee argv
      | Ir.CallVirt (d, slot, recv_r, cargs) ->
        let recv = regs.(recv_r) in
        let kid = heap_get vm recv in
        if kid < 0 || kid >= Array.length vm.prog.Ir.classes then
          raise (Trap "virtual dispatch on non-object");
        let k = vm.prog.Ir.classes.(kid) in
        if slot >= Array.length k.Ir.vtable then raise (Trap "vtable slot out of range");
        let callee = k.Ir.vtable.(slot) in
        Profile.record_call vm.profile ~site_owner:mid ~callee;
        let argv = Array.make (1 + Array.length cargs) recv in
        Array.iteri (fun j r -> argv.(j + 1) <- regs.(r)) cargs;
        regs.(d) <- exec_reference vm callee argv
      | Ir.Print r ->
        vm.out_hash <- mix vm.out_hash regs.(r);
        Inltune_support.Vec.push vm.outputs regs.(r)
    done;
    touch (base_off + n);
    vm.exec_cycles <- vm.exec_cycles + (q * Platform.term_cost plat blk.Ir.term);
    match blk.Ir.term with
    | Ir.Jump l -> loop l
    | Ir.Branch (cond, t, f) -> loop (if regs.(cond) <> 0 then t else f)
    | Ir.Ret r -> regs.(r)
  in
  let result = loop 0 in
  vm.call_depth <- vm.call_depth - 1;
  result

(* --- flat interpreter ----------------------------------------------------- *)

(* The dispatch loop below matches on opcode literals; pin them to the
   encoding [Lower] emits. *)
let () =
  assert (
    Lower.op_const = 0 && Lower.op_move = 1 && Lower.op_binop_base = 2
    && Lower.op_cmp_base = 12 && Lower.op_load = 18 && Lower.op_store = 19
    && Lower.op_loadidx = 20 && Lower.op_storeidx = 21 && Lower.op_classof = 22
    && Lower.op_alloc = 23 && Lower.op_print = 24 && Lower.op_last_plain = 24
    && Lower.op_call = 25 && Lower.op_callvirt = 26 && Lower.op_enter = 27
    && Lower.op_jump = 28 && Lower.op_branch = 29 && Lower.op_ret = 30
    && Lower.field_bits = 21 && Lower.field_mask = 0x1FFFFF
    && Lower.cost_shift = 8 && Lower.cost_mask = 0xFFFFFF && Lower.offset_shift = 32)

module Frames = Inltune_support.Frames

(* Same observable semantics as [exec_reference], executed over the lowered
   streams: per executed instruction the order is steps, fuel, icache touch,
   sample check, cost, effect; per block ENTER is fuel then spill cost; per
   terminator icache touch then cost then transfer.  Calls record the
   profile edge before the depth check, check depth before
   [record_invocation], and fetch (possibly compiling) the callee's code
   after it — bit-for-bit the reference ordering.  Register windows live in
   the VM's frame pool: pushing a frame zeroes a fresh window and copies
   argument values caller-window to callee-window, no allocation.

   Unsafe array accesses are licensed by [Lower.lower], which validates
   every register, block target, and callee id at compile time, and by the
   pool invariant fp + nregs <= sp <= length regs. *)
let exec_flat vm mid (args : int array) =
  vm.call_depth <- vm.call_depth + 1;
  if vm.call_depth > max_call_depth then raise (Trap "simulated call stack overflow");
  Profile.record_invocation vm.profile mid;
  let c0 = get_code vm mid in
  let f0 = c0.Compile.flat in
  let fr = vm.frames in
  Frames.reset fr;
  Frames.ensure_regs fr f0.Lower.nregs;
  Array.fill fr.Frames.regs 0 f0.Lower.nregs 0;
  Array.blit args 0 fr.Frames.regs 0 (Array.length args);
  fr.Frames.sp <- f0.Lower.nregs;
  let plat = vm.plat in
  let miss_penalty = plat.Platform.miss_penalty in
  let icache_on = vm.cfg.icache_enabled in
  let icache = vm.icache in
  (* The cache geometry is immutable; hoisting it lets the per-instruction
     tag probe run inline (no call, no bounds check: [idx] is masked into
     range by construction).  Each probe mirrors [Icache.access], first-fill
     record included. *)
  let itags = icache.Icache.tags
  and ifirst = icache.Icache.first
  and iline_bits = icache.Icache.line_bits
  and iindex_mask = icache.Icache.index_mask in
  let profile = vm.profile in
  let classes = vm.prog.Ir.classes in
  (* Per-step counters, hoisted out of the vm record into local refs: the
     compiler rewrites non-escaping refs into plain mutable variables, so
     the hot path keeps them in registers instead of a load + store on a
     record field per counter per step.  They are flushed back at every
     point where other code can observe the vm — sampling (which may
     compile), lazy compilation on call, traps, fuel exhaustion, and exit —
     and [sample_at] is re-read after sampling, the only one of the four
     that [maybe_sample] writes (compilation touches [compile_cycles],
     never these).  The refs must never be captured by a closure or that
     rewrite is defeated, which is why [flush] takes the values as
     arguments and the raise sites spell the flush out inline. *)
  let steps = ref vm.steps
  and fuel = ref vm.fuel_left
  and cycles = ref vm.exec_cycles
  and sample_at = ref vm.next_sample_at
  and iacc = ref icache.Icache.accesses
  and imiss = ref icache.Icache.misses in
  let flush st fu cy sa ia im =
    vm.steps <- st;
    vm.fuel_left <- fu;
    vm.exec_cycles <- cy;
    vm.next_sample_at <- sa;
    icache.Icache.accesses <- ia;
    icache.Icache.misses <- im
  in
  (* The heap pointer and length are re-read only after an allocation (the
     single thing that can move them); everything else that runs mid-loop —
     sampling, compilation, profile updates — never touches the heap. *)
  let heap = ref vm.heap
  and hlen = ref vm.heap_len in
  let code = ref f0 and pc = ref 0 and fp = ref 0 and cmid = ref mid in
  let result = ref 0 and running = ref true in
  while !running do
    (* Hoist the current frame's arrays; re-entered on every frame switch,
       so a mid-run recompile or pool growth can invalidate nothing. *)
    let f = !code in
    let opc = f.Lower.opc
    and argv = f.Lower.args
    and extra = f.Lower.extra
    and cbase = f.Lower.base in
    let spill = f.Lower.spill in
    let regs = fr.Frames.regs in
    let base = !fp in
    let i = ref !pc in
    let switched = ref false in
    (* One packed word [w] = opcode | cost << 8 | byte offset << 32, one
       packed word [av] = x | y << 21 | z << 42 (layout asserted against
       [Lower] at module init); decoding is register arithmetic, so an
       executed step streams two array slots (opc, args), and an icache
       probe's address is the frame's [cbase] plus the offset. *)
    while not !switched do
      let s = !i in
      let w = Array.unsafe_get opc s in
      let op = w land 0xFF in
      if op <= 24 then begin
        (* Plain instruction prologue, reference order. *)
        steps := !steps + 1;
        fuel := !fuel - 1;
        if !fuel <= 0 then begin
          flush !steps !fuel !cycles !sample_at !iacc !imiss;
          raise Out_of_fuel
        end;
        if icache_on then begin
          iacc := !iacc + 1;
          let line = (cbase + (w lsr 32)) lsr iline_bits in
          let idx = line land iindex_mask in
          let tag = Array.unsafe_get itags idx in
          if tag <> line then begin
            if tag < 0 then Array.unsafe_set ifirst idx line;
            Array.unsafe_set itags idx line;
            imiss := !imiss + 1;
            cycles := !cycles + miss_penalty
          end
        end;
        if !cycles >= !sample_at then begin
          flush !steps !fuel !cycles !sample_at !iacc !imiss;
          maybe_sample vm !cmid;
          sample_at := vm.next_sample_at
        end;
        cycles := !cycles + ((w lsr 8) land 0xFFFFFF);
        let av = Array.unsafe_get argv s in
        let x = av land 0x1FFFFF in
        (match op with
        | 0 (* const *) ->
          Array.unsafe_set regs (base + x)
            (Array.unsafe_get extra ((av lsr 21) land 0x1FFFFF))
        | 1 (* move *) ->
          Array.unsafe_set regs (base + x)
            (Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF)))
        | 2 (* add *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (a + b)
        | 3 (* sub *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (a - b)
        | 4 (* mul *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (a * b)
        | 5 (* div *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (if b = 0 then 0 else a / b)
        | 6 (* mod *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (if b = 0 then 0 else a mod b)
        | 7 (* and *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (a land b)
        | 8 (* or *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (a lor b)
        | 9 (* xor *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (a lxor b)
        | 10 (* shl *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (a lsl (b land 62))
        | 11 (* shr *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (a asr (b land 62))
        | 12 (* lt *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (if a < b then 1 else 0)
        | 13 (* le *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (if a <= b then 1 else 0)
        | 14 (* eq *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (if a = b then 1 else 0)
        | 15 (* ne *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (if a <> b then 1 else 0)
        | 16 (* gt *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (if a > b then 1 else 0)
        | 17 (* ge *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          and b = Array.unsafe_get regs (base + (av lsr 42)) in
          Array.unsafe_set regs (base + x) (if a >= b then 1 else 0)
        (* Heap ops run with [heap_get]/[heap_set] expanded inline: the range
           check against [heap_len] makes the subsequent unsafe access sound
           ([heap_len <= Array.length vm.heap] always); the hoisted [heap]
           and [hlen] are re-read after every allocation, the only thing
           that can move them. *)
        | 18 (* load *) ->
          let a =
            Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF)) + (av lsr 42)
          in
          if a < 0 || a >= !hlen then begin
            flush !steps !fuel !cycles !sample_at !iacc !imiss;
            raise (Trap "heap load out of range")
          end;
          Array.unsafe_set regs (base + x) (Array.unsafe_get !heap a)
        | 19 (* store *) ->
          let a = Array.unsafe_get regs (base + x) + ((av lsr 21) land 0x1FFFFF) in
          if a < 0 || a >= !hlen then begin
            flush !steps !fuel !cycles !sample_at !iacc !imiss;
            raise (Trap "heap store out of range")
          end;
          Array.unsafe_set !heap a (Array.unsafe_get regs (base + (av lsr 42)))
        | 20 (* loadidx *) ->
          let a =
            Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
            + 1
            + Array.unsafe_get regs (base + (av lsr 42))
          in
          if a < 0 || a >= !hlen then begin
            flush !steps !fuel !cycles !sample_at !iacc !imiss;
            raise (Trap "heap load out of range")
          end;
          Array.unsafe_set regs (base + x) (Array.unsafe_get !heap a)
        | 21 (* storeidx *) ->
          let a =
            Array.unsafe_get regs (base + x)
            + 1
            + Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF))
          in
          if a < 0 || a >= !hlen then begin
            flush !steps !fuel !cycles !sample_at !iacc !imiss;
            raise (Trap "heap store out of range")
          end;
          Array.unsafe_set !heap a (Array.unsafe_get regs (base + (av lsr 42)))
        | 22 (* classof *) ->
          let a = Array.unsafe_get regs (base + ((av lsr 21) land 0x1FFFFF)) in
          if a < 0 || a >= !hlen then begin
            flush !steps !fuel !cycles !sample_at !iacc !imiss;
            raise (Trap "heap load out of range")
          end;
          Array.unsafe_set regs (base + x) (Array.unsafe_get !heap a)
        | 23 (* alloc *) ->
          Array.unsafe_set regs (base + x)
            (heap_alloc vm ((av lsr 21) land 0x1FFFFF) (av lsr 42));
          heap := vm.heap;
          hlen := vm.heap_len
        | _ (* 24 print *) ->
          let v = Array.unsafe_get regs (base + x) in
          vm.out_hash <- mix vm.out_hash v;
          Inltune_support.Vec.push vm.outputs v);
        i := s + 1
      end
      else if op = 27 (* enter *) then begin
        fuel := !fuel - 1;
        if !fuel <= 0 then begin
          flush !steps !fuel !cycles !sample_at !iacc !imiss;
          raise Out_of_fuel
        end;
        if spill > 0 then cycles := !cycles + spill;
        i := s + 1
      end
      else if op = 28 (* jump *) then begin
        if icache_on then begin
          iacc := !iacc + 1;
          let line = (cbase + (w lsr 32)) lsr iline_bits in
          let idx = line land iindex_mask in
          let tag = Array.unsafe_get itags idx in
          if tag <> line then begin
            if tag < 0 then Array.unsafe_set ifirst idx line;
            Array.unsafe_set itags idx line;
            imiss := !imiss + 1;
            cycles := !cycles + miss_penalty
          end
        end;
        cycles := !cycles + ((w lsr 8) land 0xFFFFFF);
        i := Array.unsafe_get argv s land 0x1FFFFF
      end
      else if op = 29 (* branch *) then begin
        if icache_on then begin
          iacc := !iacc + 1;
          let line = (cbase + (w lsr 32)) lsr iline_bits in
          let idx = line land iindex_mask in
          let tag = Array.unsafe_get itags idx in
          if tag <> line then begin
            if tag < 0 then Array.unsafe_set ifirst idx line;
            Array.unsafe_set itags idx line;
            imiss := !imiss + 1;
            cycles := !cycles + miss_penalty
          end
        end;
        cycles := !cycles + ((w lsr 8) land 0xFFFFFF);
        let av = Array.unsafe_get argv s in
        i :=
          (if Array.unsafe_get regs (base + (av land 0x1FFFFF)) <> 0 then
             (av lsr 21) land 0x1FFFFF
           else av lsr 42)
      end
      else if op = 30 (* ret *) then begin
        if icache_on then begin
          iacc := !iacc + 1;
          let line = (cbase + (w lsr 32)) lsr iline_bits in
          let idx = line land iindex_mask in
          let tag = Array.unsafe_get itags idx in
          if tag <> line then begin
            if tag < 0 then Array.unsafe_set ifirst idx line;
            Array.unsafe_set itags idx line;
            imiss := !imiss + 1;
            cycles := !cycles + miss_penalty
          end
        end;
        cycles := !cycles + ((w lsr 8) land 0xFFFFFF);
        let rv = Array.unsafe_get regs (base + (Array.unsafe_get argv s land 0x1FFFFF)) in
        vm.call_depth <- vm.call_depth - 1;
        if fr.Frames.depth = 0 then begin
          running := false;
          result := rv
        end
        else begin
          let d = fr.Frames.depth - 1 in
          fr.Frames.depth <- d;
          fr.Frames.sp <- base;
          let pbase = fr.Frames.fps.(d) in
          code := fr.Frames.codes.(d);
          fr.Frames.codes.(d) <- Lower.dummy;
          fp := pbase;
          cmid := fr.Frames.mids.(d);
          pc := fr.Frames.pcs.(d);
          Array.unsafe_set regs (pbase + fr.Frames.dests.(d)) rv
        end;
        switched := true
      end
      else begin
        (* call / callvirt: plain prologue, then the frame switch. *)
        steps := !steps + 1;
        fuel := !fuel - 1;
        if !fuel <= 0 then begin
          flush !steps !fuel !cycles !sample_at !iacc !imiss;
          raise Out_of_fuel
        end;
        if icache_on then begin
          iacc := !iacc + 1;
          let line = (cbase + (w lsr 32)) lsr iline_bits in
          let idx = line land iindex_mask in
          let tag = Array.unsafe_get itags idx in
          if tag <> line then begin
            if tag < 0 then Array.unsafe_set ifirst idx line;
            Array.unsafe_set itags idx line;
            imiss := !imiss + 1;
            cycles := !cycles + miss_penalty
          end
        end;
        if !cycles >= !sample_at then begin
          flush !steps !fuel !cycles !sample_at !iacc !imiss;
          maybe_sample vm !cmid;
          sample_at := vm.next_sample_at
        end;
        cycles := !cycles + ((w lsr 8) land 0xFFFFFF);
        let av = Array.unsafe_get argv s in
        let x = av land 0x1FFFFF in
        let o = av lsr 42 in
        let callee =
          if op = 25 (* call *) then begin
            let callee = (av lsr 21) land 0x1FFFFF in
            Profile.record_site profile (Array.unsafe_get extra o);
            callee
          end
          else begin
            (* callvirt: resolve through the vtable before the edge is
               recorded, as the reference does. *)
            let recv = Array.unsafe_get regs (base + Array.unsafe_get extra o) in
            if recv < 0 || recv >= !hlen then begin
              flush !steps !fuel !cycles !sample_at !iacc !imiss;
              raise (Trap "heap load out of range")
            end;
            let kid = Array.unsafe_get !heap recv in
            if kid < 0 || kid >= Array.length classes then begin
              flush !steps !fuel !cycles !sample_at !iacc !imiss;
              raise (Trap "virtual dispatch on non-object")
            end;
            let k = Array.unsafe_get classes kid in
            let slot = (av lsr 21) land 0x1FFFFF in
            if slot >= Array.length k.Ir.vtable then begin
              flush !steps !fuel !cycles !sample_at !iacc !imiss;
              raise (Trap "vtable slot out of range")
            end;
            let callee = k.Ir.vtable.(slot) in
            Profile.record_call_dynamic profile ~site_owner:!cmid ~callee;
            callee
          end
        in
        vm.call_depth <- vm.call_depth + 1;
        if vm.call_depth > max_call_depth then begin
          flush !steps !fuel !cycles !sample_at !iacc !imiss;
          raise (Trap "simulated call stack overflow")
        end;
        Profile.record_invocation profile callee;
        (* [get_code] may lazily compile; keep the vm record current across
           it even though compilation never reads these counters today. *)
        flush !steps !fuel !cycles !sample_at !iacc !imiss;
        let cf = (get_code vm callee).Compile.flat in
        let d = fr.Frames.depth in
        if d >= Array.length fr.Frames.fps then Frames.grow_meta fr;
        fr.Frames.codes.(d) <- f;
        fr.Frames.fps.(d) <- base;
        fr.Frames.pcs.(d) <- s + 1;
        fr.Frames.dests.(d) <- x;
        fr.Frames.mids.(d) <- !cmid;
        fr.Frames.depth <- d + 1;
        let nfp = fr.Frames.sp in
        let need = nfp + cf.Lower.nregs in
        if need <= Array.length fr.Frames.regs then
          vm.frames_reused <- vm.frames_reused + 1
        else Frames.grow_regs fr need;
        let regs' = fr.Frames.regs in
        Array.fill regs' nfp cf.Lower.nregs 0;
        if op = 25 then begin
          let nargs = Array.unsafe_get extra (o + 1) in
          for j = 0 to nargs - 1 do
            Array.unsafe_set regs' (nfp + j)
              (Array.unsafe_get regs' (base + Array.unsafe_get extra (o + 2 + j)))
          done
        end
        else begin
          (* receiver in slot 0, then the declared arguments *)
          Array.unsafe_set regs' nfp
            (Array.unsafe_get regs' (base + Array.unsafe_get extra o));
          let nargs = Array.unsafe_get extra (o + 1) in
          for j = 0 to nargs - 1 do
            Array.unsafe_set regs' (nfp + 1 + j)
              (Array.unsafe_get regs' (base + Array.unsafe_get extra (o + 2 + j)))
          done
        end;
        fr.Frames.sp <- need;
        code := cf;
        fp := nfp;
        cmid := callee;
        pc := 0;
        switched := true
      end
    done
  done;
  flush !steps !fuel !cycles !sample_at !iacc !imiss;
  !result

let exec vm mid args =
  if !reference_mode then exec_reference vm mid args else exec_flat vm mid args

(* --- iterations ---------------------------------------------------------- *)

type iteration = {
  ret : int;
  it_exec_cycles : int;
  it_compile_cycles : int;
  it_steps : int;
  it_out_hash : int;
  it_outputs : int array;
}

let trace_iteration ?(derived = false) vm ~exec_cycles ~compile_cycles ~steps =
  Trace.emit "vm.iteration"
    ~fields:
      ([
         ("prog", Event.Str vm.prog.Ir.pname);
         ("scenario", Event.Str (scenario_name vm.cfg.scenario));
         ("exec_cycles", Event.Int exec_cycles);
         ("compile_cycles", Event.Int compile_cycles);
         ("steps", Event.Int steps);
       ]
      @ if derived then [ ("derived", Event.Bool true) ] else [])

let frames_reused = Metric.handle "vm.frames_reused"
let templates_built = Metric.handle "vm.baseline_templates.built"
let templates_reused = Metric.handle "vm.baseline_templates.reused"

(* One run of [main].  Compiled-code state, profile, and the I-cache persist
   across iterations (the warmed VM); the heap and output log are fresh per
   iteration so results are comparable. *)
let run_iteration vm =
  vm.heap_len <- 0;
  vm.out_hash <- 0;
  Inltune_support.Vec.clear vm.outputs;
  vm.fuel_left <- vm.cfg.fuel;
  let exec0 = vm.exec_cycles and comp0 = vm.compile_cycles and steps0 = vm.steps in
  let ret = exec vm vm.prog.Ir.main [||] in
  (* Flush the frame-pool reuse and baseline-template tallies once per
     iteration. *)
  let flush h n = if n > 0 then Metric.bump_by h n in
  flush frames_reused vm.frames_reused;
  flush templates_built vm.templates_built;
  flush templates_reused vm.templates_reused;
  vm.frames_reused <- 0;
  vm.templates_built <- 0;
  vm.templates_reused <- 0;
  if Trace.enabled () then
    trace_iteration vm ~exec_cycles:(vm.exec_cycles - exec0)
      ~compile_cycles:(vm.compile_cycles - comp0) ~steps:(vm.steps - steps0);
  {
    ret;
    it_exec_cycles = vm.exec_cycles - exec0;
    it_compile_cycles = vm.compile_cycles - comp0;
    it_steps = vm.steps - steps0;
    it_out_hash = vm.out_hash;
    it_outputs = Inltune_support.Vec.to_array vm.outputs;
  }

let opt_compiles vm = vm.opt_compiles
let o1_compiles vm = vm.o1_compiles
let baseline_compiles vm = vm.baseline_compiles
let code_bytes vm = Codespace.allocated vm.codespace
let icache_misses vm = Icache.misses vm.icache
let icache_accesses vm = Icache.accesses vm.icache
let profile vm = vm.profile
let compiled_method vm mid = vm.compiled.(mid)
