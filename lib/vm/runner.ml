(* The paper's measurement methodology (Section 5): run the benchmark at
   least twice inside one VM.  The first iteration pays for loading,
   compilation and inlining — its cost is *total time*.  Later iterations
   involve (almost) no compilation — the best of them is *running time*. *)

type measurement = {
  total_cycles : int;     (* first iteration: exec + compile *)
  running_cycles : int;   (* best exec-only cycles of the later iterations *)
  first_exec_cycles : int;
  first_compile_cycles : int;
  opt_compiles : int;
  baseline_compiles : int;
  code_bytes : int;
  icache_misses : int;
  icache_accesses : int;
  steps : int;
  ret : int;
  out_hash : int;
}

(* Under [Opt] on the flat interpreter, iterations 2..n are a pure function
   of iteration 1, so they are derived rather than executed.  Every method
   is compiled once, at its first call, with no profile input, and sampling
   never recompiles: each iteration runs the same instruction-address trace
   at the same instruction and spill costs.  The only carried state that
   changes cycles is the I-cache, and a repeat pass over a trace leaves a
   direct-mapped cache in the state the first pass left it, so every later
   pass takes [Icache.repeat_misses] misses and costs the same.  Adapt and
   Ladder recompile from samples taken during later iterations, so they
   execute every one; so does the reference interpreter, which keeps it an
   independent oracle for this derivation. *)
let derives_later_iterations cfg =
  cfg.Machine.scenario = Machine.Opt && not (Machine.reference_enabled ())

let iterations_derived = Inltune_obs.Metric.handle "vm.iterations_derived"

(* Iteration 1 pays for compilation; the running time is the best of the
   later ones, so a measurement needs at least one more. *)
let check_iterations n =
  if n < 2 then Error "need at least 2 iterations" else Ok ()

let measure ?(iterations = 2) ?code_keys ?precomputed ?record cfg plat prog =
  Result.iter_error (fun m -> invalid_arg ("Runner.measure: " ^ m)) (check_iterations iterations);
  let module Prof = Inltune_obs.Prof in
  let module Trace = Inltune_obs.Trace in
  let module Event = Inltune_obs.Event in
  let sim_start = if Prof.enabled () then Trace.now () else 0.0 in
  let vm = Machine.create ?code_keys ?precomputed ?record cfg plat prog in
  (* Each executed iteration under a "vm.execute" span; lazy compiles inside
     it show up as nested "vm.compile" spans, so execute self-time is
     interpretation proper.  A derived iteration opens no span. *)
  let run_one () = Prof.span "vm.execute" (fun () -> Machine.run_iteration vm) in
  let first = run_one () in
  let running_cycles, icache_misses, icache_accesses, steps, last =
    if derives_later_iterations cfg then begin
      let later = iterations - 1 in
      let m1 = Machine.icache_misses vm in
      let m2 = Icache.repeat_misses vm.Machine.icache in
      let e2 = first.Machine.it_exec_cycles + (plat.Platform.miss_penalty * (m2 - m1)) in
      Inltune_obs.Metric.bump_by iterations_derived later;
      if Trace.enabled () then
        for _ = 1 to later do
          Machine.trace_iteration ~derived:true vm ~exec_cycles:e2 ~compile_cycles:0
            ~steps:first.Machine.it_steps
        done;
      ( e2,
        m1 + (later * m2),
        iterations * Machine.icache_accesses vm,
        iterations * vm.Machine.steps,
        first )
    end
    else begin
      let best = ref max_int and last = ref first in
      for _ = 2 to iterations do
        let it = run_one () in
        if it.Machine.it_exec_cycles < !best then best := it.Machine.it_exec_cycles;
        last := it
      done;
      (!best, Machine.icache_misses vm, Machine.icache_accesses vm, vm.Machine.steps, !last)
    end
  in
  let m =
    {
      total_cycles = first.Machine.it_exec_cycles + first.Machine.it_compile_cycles;
      running_cycles;
      first_exec_cycles = first.Machine.it_exec_cycles;
      first_compile_cycles = first.Machine.it_compile_cycles;
      opt_compiles = Machine.opt_compiles vm;
      baseline_compiles = Machine.baseline_compiles vm;
      code_bytes = Machine.code_bytes vm;
      icache_misses;
      icache_accesses;
      steps;
      ret = last.Machine.ret;
      out_hash = last.Machine.it_out_hash;
    }
  in
  if Trace.enabled () then
    Trace.emit "vm.measure"
      ~fields:
        [
          ("prog", Event.Str prog.Inltune_jir.Ir.pname);
          ("scenario", Event.Str (Machine.scenario_name cfg.Machine.scenario));
          ("total_cycles", Event.Int m.total_cycles);
          ("running_cycles", Event.Int m.running_cycles);
          ("compile_cycles", Event.Int m.first_compile_cycles);
          ("opt_compiles", Event.Int m.opt_compiles);
          ("baseline_compiles", Event.Int m.baseline_compiles);
          ("code_bytes", Event.Int m.code_bytes);
          ("icache_misses", Event.Int m.icache_misses);
          ("icache_accesses", Event.Int m.icache_accesses);
        ];
  (* Per-simulation host-cost breakdown: where this simulation's wall time
     went.  compile comes from the VM's Prof-fed accumulator.  All of it is
     observability-side — the measurement record above is bit-identical with
     profiling on or off. *)
  if Inltune_obs.Prof.enabled () then begin
    let wall = Trace.now () -. sim_start in
    let compile = vm.Machine.compile_wall_s in
    let execute = Float.max 0.0 (wall -. compile) in
    Inltune_obs.Metric.observe (Inltune_obs.Metric.histogram "vm.sim_wall_us") (wall *. 1e6);
    if Trace.enabled () then
      Trace.emit "vm.breakdown"
        ~fields:
          [
            ("prog", Event.Str prog.Inltune_jir.Ir.pname);
            ("scenario", Event.Str (Machine.scenario_name cfg.Machine.scenario));
            ("wall_us", Event.Float (wall *. 1e6));
            ("compile_us", Event.Float (compile *. 1e6));
            ("execute_us", Event.Float (execute *. 1e6));
          ]
  end;
  m

(* Pure semantic run: interpret the program once with everything that could
   perturb observable behaviour disabled (Opt scenario, chosen heuristic) and
   return what it computed.  Used by the semantics-preservation tests. *)
let observe ?(fuel = 100_000_000) ?(heuristic = Inltune_opt.Heuristic.never) plat prog =
  let cfg = Machine.config ~fuel Machine.Opt heuristic in
  let vm = Machine.create cfg plat prog in
  let it = Machine.run_iteration vm in
  (it.Machine.ret, it.Machine.it_outputs)
