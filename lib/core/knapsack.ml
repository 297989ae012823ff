open Inltune_jir
open Inltune_opt
open Inltune_vm
module W = Inltune_workloads

(* The knapsack-oracle inlining baseline of Arnold, Fink, Sarkar & Sweeney
   (DYNAMO'00), which the paper discusses in Related Work: with *global*
   knowledge of a complete profiled run, treat each call edge as a knapsack
   item — benefit = dynamic calls saved x per-call overhead, cost = callee
   code size — and greedily select edges by benefit/cost ratio under a code
   expansion budget (Arnold et al. used expansions of up to 10%).

   The paper's point is that this is a limit study: a JIT cannot know future
   edge frequencies when it compiles.  We reproduce it as an oracle to
   compare the GA-tuned online heuristic against:

   1. profile a complete run with inlining disabled;
   2. select edges greedily under the budget;
   3. compile with exactly those edges inlined (direct call sites only,
      matching the one-level knapsack formulation) and measure. *)

type plan = {
  selected : (int, unit) Hashtbl.t;  (* key = owner * nmethods + callee *)
  nmethods : int;
  budget : int;          (* size units of allowed growth *)
  spent : int;
  candidates : int;
  chosen : int;
}

let edge_key ~nmethods ~site_owner ~callee = (site_owner * nmethods) + callee

(* Per-call cycles an inlined edge saves (call + return + argument setup). *)
let edge_benefit (plat : Platform.t) (callee : Ir.methd) count =
  count
  * (plat.Platform.call_overhead + plat.Platform.ret_overhead
    + (plat.Platform.arg_cost * callee.Ir.nargs))

(* The growth budget's bound, checked before the profiling run. *)
let check_limit limit =
  if Float.is_finite limit && limit >= 0.0 then Ok () else Error "must be finite and >= 0"

(* The budget in size units; a limit too large for an int saturates. *)
let budget_of ~expansion_limit program_size =
  let b = expansion_limit *. Float.of_int program_size in
  if b >= Float.of_int max_int then max_int else Float.to_int b

let build_plan ?(expansion_limit = 0.10) (plat : Platform.t) (prog : Ir.program) =
  Result.iter_error
    (fun m -> invalid_arg ("Knapsack.build_plan: expansion_limit " ^ m))
    (check_limit expansion_limit);
  (* Oracle profiling run: whole program, no inlining, one iteration. *)
  let cfg = Machine.config ~inline_enabled:false Machine.Opt Heuristic.never in
  let vm = Machine.create cfg plat prog in
  ignore (Machine.run_iteration vm);
  let profile = Machine.profile vm in
  let nmethods = Array.length prog.Ir.methods in
  (* Candidate edges: static call edges with a positive dynamic count. *)
  let cg = Callgraph.build prog in
  let candidates = ref [] in
  Array.iter
    (fun m ->
      List.iter
        (fun callee ->
          if callee <> m.Ir.mid then begin
            let count = Profile.edge_count profile ~site_owner:m.Ir.mid ~callee in
            if count > 0 then begin
              let callee_m = prog.Ir.methods.(callee) in
              let cost = Size.of_method callee_m in
              let benefit = edge_benefit plat callee_m count in
              candidates := (m.Ir.mid, callee, benefit, cost) :: !candidates
            end
          end)
        (Callgraph.callees cg m.Ir.mid))
    prog.Ir.methods;
  let items = Array.of_list !candidates in
  (* Greedy by benefit/cost ratio, ties broken deterministically. *)
  Array.sort
    (fun (o1, c1, b1, s1) (o2, c2, b2, s2) ->
      let r1 = Float.of_int b1 /. Float.of_int s1 in
      let r2 = Float.of_int b2 /. Float.of_int s2 in
      match compare r2 r1 with 0 -> compare (o1, c1) (o2, c2) | c -> c)
    items;
  let budget = budget_of ~expansion_limit (Size.of_program prog) in
  let selected = Hashtbl.create 64 in
  let spent = ref 0 in
  Array.iter
    (fun (owner, callee, _benefit, cost) ->
      if !spent + cost <= budget then begin
        Hashtbl.replace selected (edge_key ~nmethods ~site_owner:owner ~callee) ();
        spent := !spent + cost
      end)
    items;
  {
    selected;
    nmethods;
    budget;
    spent = !spent;
    candidates = Array.length items;
    chosen = Hashtbl.length selected;
  }

(* The per-site decision the oracle compiles with: inline exactly the
   selected edges, at direct call sites only (the knapsack formulation is
   one-level — nested opportunities were already counted as their own
   edges). *)
let decision plan ~site_owner ~callee ~callee_size:_ ~inline_depth ~caller_size:_ =
  inline_depth = 1
  && Hashtbl.mem plan.selected (edge_key ~nmethods:plan.nmethods ~site_owner ~callee)

(* Measure a benchmark compiled by the oracle plan (Opt scenario). *)
let measure ?expansion_limit ?(iterations = 3) (plat : Platform.t) bm =
  let prog = W.Suites.program bm in
  let plan = build_plan ?expansion_limit plat prog in
  let decide = decision plan in
  let cfg = Machine.config ~custom_inliner:decide Machine.Opt Heuristic.never in
  (plan, Measure.of_measurement (Runner.measure ~iterations cfg plat prog))
