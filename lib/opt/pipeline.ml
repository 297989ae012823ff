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
   to the totals.

   One loop serves every caller: [start], one [step] per plan item, and
   [finish], the one stats builder.  [run_detailed] is all three in a row;
   the trajectory cache stops after the last inliner-kind item and
   finishes only the runs its memo cannot answer for. *)

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

(* A plan run between items: the method after items [0, next), the deltas
   so far (newest first) and the size trajectory.  [size_peak] is recorded
   right after the plan's *last* inliner-kind item ({!Pass.inliner_names})
   — enabled or not, matching the historical trajectory for both the
   inlining and the no-inlining configurations (in the default plan every
   strategy item is disabled, so the size there equals the size right
   after the inline item).  Plans without any inliner item fall back to the
   maximum size reached.  Immutable: a walk keeps one and resumes it
   later. *)
type partial = {
  program : Ir.program;
  config : config;
  ctx : Pass.ctx;
  last_inliner : int;
  size_before : int;
  peak : int;  (* -1 until recorded *)
  next : int;
  cur : Ir.methd;
  deltas : (string * Pass.delta) list;
}

let last_inliner (plan : Plan.t) =
  let last = ref (-1) in
  Array.iteri
    (fun i (it : Plan.item) -> if Pass.is_inliner_name it.Plan.pass then last := i)
    plan.Plan.items;
  !last

let start program config m =
  (match config.facts with
  | Some f when Facts.program f != program -> invalid_arg "Pipeline.run: facts of another program"
  | Some _ | None -> ());
  let size_before =
    match config.facts with
    | Some f when is_original program m -> (Facts.sizes f).(m.Ir.mid)
    | Some _ | None -> Size.of_method m
  in
  let last_inliner = last_inliner config.plan in
  {
    program;
    config;
    ctx =
      {
        Pass.decider = config.decider;
        hot_site = config.hot_site;
        devirt_oracle = config.devirt_oracle;
        profile = config.profile;
      };
    last_inliner;
    size_before;
    peak = (if last_inliner < 0 then size_before else -1);
    next = 0;
    cur = m;
    deltas = [];
  }

let current p = p.cur
let peak p = p.peak

(* Run item [p.next]: an enabled, applicable item runs its pass ("iters"
   times) and contributes one delta; any other leaves the method as is. *)
let step p =
  let idx = p.next in
  let it = p.config.plan.Plan.items.(idx) in
  let facts = p.config.facts in
  let cur, deltas =
    if not it.Plan.enabled then (p.cur, p.deltas)
    else
      match List.assoc_opt it.Plan.pass registry with
      | None -> (p.cur, p.deltas) (* unreachable for validated plans *)
      | Some r ->
        let pass = r.pass in
        if not (pass.Pass.applicable p.ctx) then (p.cur, p.deltas)
        else begin
          let knob name = Plan.item_knob it name in
          let iters = match Pass.find_knob pass "iters" with Some _ -> knob "iters" | None -> 1 in
          let cur = ref p.cur and acc = ref Pass.zero_delta in
          for _ = 1 to iters do
            let before = !cur in
            let m', d =
              match facts with
              | Some f when pass == Pass.constprop && is_original p.program before ->
                (* A pure function of the original method: served from
                   the table, with no span and no pass counts, which
                   only real runs produce. *)
                Metric.bump constprop_reused;
                Pass.constprop_original f before.Ir.mid
              | Some _ | None ->
                exec_pass ?facts p.program p.ctx r ~knob (lazy (Size.of_method before)) before
            in
            cur := m';
            acc := Pass.add_delta !acc d
          done;
          (!cur, (pass.Pass.name, !acc) :: p.deltas)
        end
  in
  let peak =
    if idx = p.last_inliner && p.peak < 0 then Size.of_method cur
    else if p.last_inliner < 0 then max p.peak (Size.of_method cur)
    else p.peak
  in
  { p with next = idx + 1; cur; deltas; peak }

let rec run_until p stop = if p.next >= stop then p else run_until (step p) stop

(* The one stats builder: the totals are the field-wise sum of the
   per-item deltas. *)
let finish p =
  let p = run_until p (Array.length p.config.plan.Plan.items) in
  let m = p.cur in
  let size_after = Size.of_method m in
  let size_peak = if p.peak < 0 then size_after else p.peak in
  let total = List.fold_left (fun acc (_, d) -> Pass.add_delta acc d) Pass.zero_delta p.deltas in
  let stats =
    {
      size_before = p.size_before;
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
  (m, stats, List.rev p.deltas)

let run_detailed program config m = finish (start program config m)

let run program config m =
  let m, stats, _ = run_detailed program config m in
  (m, stats)

(* The suffix a run's output depends on only through the method entering
   it: after the last inliner-kind item, when every enabled item there is
   context-free ({!Pass.t.context_free}). *)
let context_free_suffix (plan : Plan.t) =
  let l = last_inliner plan in
  let context_free (it : Plan.item) =
    (not it.Plan.enabled)
    || match Pass.find it.Plan.pass with Some p -> p.Pass.context_free | None -> false
  in
  let items = plan.Plan.items in
  let rec clean j = j >= Array.length items || (context_free items.(j) && clean (j + 1)) in
  if l >= 0 && clean (l + 1) then Some l else None

(* The plan's inliner block: its first and last inliner-kind items, when
   every enabled item between them is of inliner kind too. *)
let inliner_span (plan : Plan.t) =
  let l = last_inliner plan in
  let items = plan.Plan.items in
  let rec first j = if Pass.is_inliner_name items.(j).Plan.pass then j else first (j + 1) in
  if l < 0 then None
  else
    let f = first 0 in
    let inliner_or_off (it : Plan.item) =
      (not it.Plan.enabled) || Pass.is_inliner_name it.Plan.pass
    in
    let rec clean j = j > l || (inliner_or_off items.(j) && clean (j + 1)) in
    if clean f then Some (f, l) else None

(* What [step] would run for inliner-kind item [j] on a method of
   [root_size], from the same plan knobs, context and facts. *)
let engine_at p j ~root_size =
  let it = p.config.plan.Plan.items.(j) in
  if not it.Plan.enabled then None
  else
    match List.assoc_opt it.Plan.pass registry with
    | None -> None (* unreachable for validated plans *)
    | Some { pass = { Pass.engine = None; _ }; _ } ->
      invalid_arg "Pipeline.engine_at: not an inliner"
    | Some { pass = { Pass.engine = Some build; _ } as pass; _ } ->
      if not (pass.Pass.applicable p.ctx) then None
      else
        let facts = match p.config.facts with Some f -> f | None -> Facts.of_program p.program in
        build facts p.ctx ~knob:(Plan.item_knob it) ~root_size
