open Inltune_jir
(* The optimizing compiler's middle end, as a thin interpreter over a
   {!Plan.t}: each enabled plan item looks up its {!Pass.t}, runs it (knob
   "iters" times), and contributes a uniform {!Pass.delta}.  The default
   plan reproduces the historical hard-coded order — devirtualize what is
   provable, inline under the decider, then let constant propagation / CSE /
   copy propagation / DCE collect the payoff, and clean the CFG — so
   pre-plan experiments are bit-identical.

   The returned [stats] carry the size trajectory the VM's compile-time
   model charges for: [size_before] (input bytecode), [size_peak] (right
   after the inline item, the IR every downstream pass must chew through —
   this is where over-aggressive inlining costs compile time), and
   [size_after] (emitted code, which is what occupies the I-cache).  The
   aggregate counters are the field-wise sum of the per-item deltas — no ad
   hoc per-pass arithmetic — so [run_detailed]'s deltas always sum exactly
   to the totals. *)

type site_decision = Decider.site_decision

type config = {
  decider : Decider.t;
  plan : Plan.t;
  hot_site : (site_owner:Ir.mid -> callee:Ir.mid -> bool) option;
      (* adaptive scenario: which call sites are profile-hot *)
  devirt_oracle : Guarded_devirt.site_oracle option;
      (* adaptive scenario: guard-devirtualize monomorphic virtual sites *)
  profile : Hotpath.view option;
      (* adaptive scenario: live call-edge counts (hot-path strategy) *)
  facts : Facts.t option;
      (* the compiled program's fact-table entry, looked up once per VM *)
}

(* The one constructor every configuration goes through. *)
let make ?(plan = Plan.default) ?hot_site ?devirt_oracle ?profile ?facts decider =
  { decider; plan; hot_site; devirt_oracle; profile; facts }

(* Standard optimizing configuration around a heuristic. *)
let opt_config ?hot_site heuristic = make ?hot_site (Decider.Heuristic heuristic)

(* Optimizations on, inlining off (the paper's Fig. 1 baseline).  The
   decider is never consulted — the plan's inline item is disabled. *)
let no_inline_config = make ~plan:Plan.no_inline (Decider.Heuristic Heuristic.default)

(* Optimizations on, inlining decided per call site by [decide]. *)
let custom_config decide = make (Decider.Custom decide)

(* Optimizations on, inlining decided by a first-class {!Policy.t}. *)
let policy_config ?hot_site policy = make ?hot_site (Decider.Policy policy)

type stats = {
  size_before : int;
  size_peak : int;
  size_after : int;
  sites_seen : int;
  sites_inlined : int;
  hot_sites_seen : int;
  hot_sites_inlined : int;
  sites_guarded : int;
  folded : int;
  devirtualized : int;
  cse_replaced : int;
  copies_propagated : int;
  dce_removed : int;
}

module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event
module Metric = Inltune_obs.Metric

(* Every registered pass with its span name and counters, bound once. *)
type registered = {
  pass : Pass.t;
  span : string;                (* "opt.pass.<name>" *)
  runs : Metric.handle;         (* "pass.<name>.runs" *)
  transforms : Metric.handle;   (* "pass.<name>.transforms" *)
}

let registry =
  List.map
    (fun (p : Pass.t) ->
      ( p.Pass.name,
        {
          pass = p;
          span = "opt.pass." ^ p.Pass.name;
          runs = Metric.handle ("pass." ^ p.Pass.name ^ ".runs");
          transforms = Metric.handle ("pass." ^ p.Pass.name ^ ".transforms");
        } ))
    Pass.all

(* Constprop runs served from the fact table instead. *)
let constprop_reused = Metric.handle "pipeline.constprop_reused"

(* One invocation of one pass: a span with the pass's own transform count
   and the size it produced ([Trace.span] runs the thunk directly when
   tracing is off, so the disabled cost is one closure; the size fields are
   only computed inside the enabled-only [post] callback). *)
let exec_pass ?facts program ctx r ~knob size_in m =
  let m, d =
    (* Nested inside the trace span so the profiler attributes pass time
       under whatever compiled it ("...;vm.compile;opt.pass.<name>"). *)
    Trace.span r.span
      ~post:(fun (m', d) ->
        [
          ("transforms", Event.Int (Pass.transforms d));
          ("sites_inlined", Event.Int d.Pass.d_sites_inlined);
          ("size_in", Event.Int (Lazy.force size_in));
          ("size_out", Event.Int (Size.of_method m'));
        ])
      (fun () ->
        Inltune_obs.Prof.span r.span (fun () -> r.pass.Pass.run ?facts program ctx ~knob m))
  in
  Metric.bump r.runs;
  let tr = Pass.transforms d in
  if tr > 0 then Metric.bump_by r.transforms tr;
  (m, d)

(* [m] is the program's own method [m.mid], physically: then everything the
   fact table knows about that method applies to it. *)
let is_original program m =
  let ms = program.Ir.methods in
  m.Ir.mid >= 0 && m.Ir.mid < Array.length ms && ms.(m.Ir.mid) == m

(* Interpret the plan.  Returns the per-item deltas alongside the method
   and totals; [size_peak] is recorded right after the plan's *last*
   inliner-kind item ({!Pass.inliner_names}) — enabled or not, matching the
   historical trajectory for both the inlining and the no-inlining
   configurations (in the default plan every strategy item is disabled, so
   the size there equals the size right after the inline item).  Plans
   without any inliner item fall back to the maximum size reached. *)
let run_detailed program config m =
  let ctx =
    {
      Pass.decider = config.decider;
      hot_site = config.hot_site;
      devirt_oracle = config.devirt_oracle;
      profile = config.profile;
    }
  in
  let facts = config.facts in
  (match facts with
  | Some f when Facts.program f != program -> invalid_arg "Pipeline.run: facts of another program"
  | Some _ | None -> ());
  let size_before =
    match facts with
    | Some f when is_original program m -> (Facts.sizes f).(m.Ir.mid)
    | Some _ | None -> Size.of_method m
  in
  let last_inliner =
    let last = ref (-1) in
    Array.iteri
      (fun i (it : Plan.item) -> if Pass.is_inliner_name it.Plan.pass then last := i)
      config.plan.Plan.items;
    !last
  in
  let track_max = last_inliner < 0 in
  let size_peak = ref (if track_max then size_before else -1) in
  let deltas = ref [] in
  let cur = ref m in
  Array.iteri
    (fun idx (it : Plan.item) ->
      (if it.Plan.enabled then
         match List.assoc_opt it.Plan.pass registry with
         | None -> () (* unreachable for validated plans *)
         | Some r ->
           let p = r.pass in
           if p.Pass.applicable ctx then begin
             let knob name = Plan.item_knob it name in
             let iters =
               match Pass.find_knob p "iters" with Some _ -> knob "iters" | None -> 1
             in
             let acc = ref Pass.zero_delta in
             for _ = 1 to iters do
               let before = !cur in
               let m', d =
                 match facts with
                 | Some f when p == Pass.constprop && is_original program before ->
                   (* A pure function of the original method: served from
                      the table, with no span and no pass counts, which
                      only real runs produce. *)
                   Metric.bump constprop_reused;
                   Pass.constprop_original f before.Ir.mid
                 | Some _ | None ->
                   exec_pass ?facts program ctx r ~knob (lazy (Size.of_method before)) before
               in
               cur := m';
               acc := Pass.add_delta !acc d
             done;
             deltas := (p.Pass.name, !acc) :: !deltas
           end);
      if idx = last_inliner && !size_peak < 0 then size_peak := Size.of_method !cur
      else if track_max then size_peak := max !size_peak (Size.of_method !cur))
    config.plan.Plan.items;
  let m = !cur in
  let size_after = Size.of_method m in
  let size_peak = if !size_peak < 0 then size_after else !size_peak in
  let total = List.fold_left (fun acc (_, d) -> Pass.add_delta acc d) Pass.zero_delta !deltas in
  let stats =
    {
      size_before;
      size_peak;
      size_after;
      sites_seen = total.Pass.d_sites_seen;
      sites_inlined = total.Pass.d_sites_inlined;
      hot_sites_seen = total.Pass.d_hot_sites_seen;
      hot_sites_inlined = total.Pass.d_hot_sites_inlined;
      sites_guarded = total.Pass.d_sites_guarded;
      folded = total.Pass.d_folded;
      devirtualized = total.Pass.d_devirtualized;
      cse_replaced = total.Pass.d_cse_replaced;
      copies_propagated = total.Pass.d_copies_propagated;
      dce_removed = total.Pass.d_dce_removed;
    }
  in
  if Trace.enabled () then
    Trace.emit "opt.method"
      ~fields:
        [
          ("method", Event.Str m.Ir.mname);
          ("size_before", Event.Int stats.size_before);
          ("size_peak", Event.Int stats.size_peak);
          ("size_after", Event.Int stats.size_after);
          ("sites_seen", Event.Int stats.sites_seen);
          ("sites_inlined", Event.Int stats.sites_inlined);
          ("folded", Event.Int stats.folded);
          ("dce_removed", Event.Int stats.dce_removed);
        ];
  (m, stats, List.rev !deltas)

let run program config m =
  let m, stats, _ = run_detailed program config m in
  (m, stats)
