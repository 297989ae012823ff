open Inltune_jir

(* First-class optimizer passes.  Each pass wraps one transformation from
   this directory behind a uniform interface: a name (the span/Plan
   vocabulary), declared integer knobs, and a [run] returning the rewritten
   method plus a uniform [delta] stats record.

   The [delta] fields mirror the counters [Pipeline.stats] aggregates; each
   pass fills only its own fields, so summing the deltas of a pipeline run
   field-by-field reproduces the pipeline totals exactly — the invariant the
   plan interpreter is built on (and tests assert). *)

type knob = {
  k_name : string;
  k_lo : int;
  k_hi : int;  (* inclusive *)
  k_default : int;
}

type delta = {
  d_sites_seen : int;
  d_sites_inlined : int;
  d_hot_sites_seen : int;
  d_hot_sites_inlined : int;
  d_sites_guarded : int;
  d_folded : int;
  d_devirtualized : int;
  d_branches_folded : int;
  d_cse_replaced : int;
  d_copies_propagated : int;
  d_dce_removed : int;
}

let zero_delta =
  {
    d_sites_seen = 0;
    d_sites_inlined = 0;
    d_hot_sites_seen = 0;
    d_hot_sites_inlined = 0;
    d_sites_guarded = 0;
    d_folded = 0;
    d_devirtualized = 0;
    d_branches_folded = 0;
    d_cse_replaced = 0;
    d_copies_propagated = 0;
    d_dce_removed = 0;
  }

let add_delta a b =
  {
    d_sites_seen = a.d_sites_seen + b.d_sites_seen;
    d_sites_inlined = a.d_sites_inlined + b.d_sites_inlined;
    d_hot_sites_seen = a.d_hot_sites_seen + b.d_hot_sites_seen;
    d_hot_sites_inlined = a.d_hot_sites_inlined + b.d_hot_sites_inlined;
    d_sites_guarded = a.d_sites_guarded + b.d_sites_guarded;
    d_folded = a.d_folded + b.d_folded;
    d_devirtualized = a.d_devirtualized + b.d_devirtualized;
    d_branches_folded = a.d_branches_folded + b.d_branches_folded;
    d_cse_replaced = a.d_cse_replaced + b.d_cse_replaced;
    d_copies_propagated = a.d_copies_propagated + b.d_copies_propagated;
    d_dce_removed = a.d_dce_removed + b.d_dce_removed;
  }

(* Each pass touches a disjoint subset of the fields, so this total is that
   pass's own transform count — the number the per-pass trace spans report. *)
let transforms d =
  d.d_sites_inlined + d.d_sites_guarded + d.d_folded + d.d_devirtualized
  + d.d_branches_folded + d.d_cse_replaced + d.d_copies_propagated + d.d_dce_removed

type ctx = {
  decider : Decider.t;
  hot_site : (site_owner:Ir.mid -> callee:Ir.mid -> bool) option;
  devirt_oracle : Guarded_devirt.site_oracle option;
  profile : Hotpath.view option;
      (* adaptive scenario: live call-edge counts for the hot-path strategy *)
}

type t = {
  name : string;
  knobs : knob list;
  applicable : ctx -> bool;
      (* structurally skipped (no run, no span) when false — e.g. guarded
         devirtualization without a profile oracle *)
  run :
    ?facts:Facts.t -> Ir.program -> ctx -> knob:(string -> int) -> Ir.methd -> Ir.methd * delta;
      (* [knob] resolves this instance's declared knobs (plan value or
         declared default); "iters" is interpreted by the pipeline, every
         other knob by the pass itself; [facts], the program's fact-table
         entry, saves the inliners a lookup *)
  static_policy : ((string -> int) -> Facts.t -> Ir.methd -> Policy.t) option;
      (* for inliner passes whose decisions read nothing but the program
         and the site record: rebuild the exact per-method policy from a
         knob lookup, so Fitcache can walk it (see fitcache.ml) *)
}

let always_applicable _ = true

let guarded_devirt =
  {
    name = "guarded_devirt";
    knobs = [];
    applicable = (fun ctx -> ctx.devirt_oracle <> None);
    run =
      (fun ?facts:_ program ctx ~knob:_ m ->
        match ctx.devirt_oracle with
        | None -> (m, zero_delta)
        | Some oracle ->
          let m, s = Guarded_devirt.run ~program ~oracle m in
          (m, { zero_delta with d_sites_guarded = s.Guarded_devirt.sites_guarded }));
    static_policy = None;
  }

let iters_knob = { k_name = "iters"; k_lo = 1; k_hi = 3; k_default = 1 }

let run_constprop program m =
  let m, s = Constprop.run program m in
  ( m,
    {
      zero_delta with
      d_folded = s.Constprop.folded;
      d_devirtualized = s.Constprop.devirtualized;
      d_branches_folded = s.Constprop.branches_folded;
    } )

let constprop =
  {
    name = "constprop";
    knobs = [ iters_knob ];
    applicable = always_applicable;
    run = (fun ?facts:_ program _ ~knob:_ m -> run_constprop program m);
    static_policy = None;
  }

(* The constprop pass over each of the program's own methods, one slot per
   method, filled on first use: the first constprop item of nearly every
   optimizing compile receives the original method, and the fitness cache
   walks from these as roots. *)
let constprop_slots =
  Facts.key ~name:"constprop" (fun f ->
      Array.make (Array.length (Facts.program f).Ir.methods) None)

let constprop_original facts mid =
  let slots = Facts.get facts constprop_slots in
  match slots.(mid) with
  | Some r -> r
  | None ->
    let program = Facts.program facts in
    let r = run_constprop program program.Ir.methods.(mid) in
    slots.(mid) <- Some r;
    r

let inline_delta (s : Engine.stats) =
  {
    zero_delta with
    d_sites_seen = s.Engine.sites_seen;
    d_sites_inlined = s.Engine.sites_inlined;
    d_hot_sites_seen = s.Engine.hot_sites_seen;
    d_hot_sites_inlined = s.Engine.hot_sites_inlined;
  }

let inline =
  {
    name = "inline";
    knobs = [];
    applicable = always_applicable;
    run =
      (fun ?facts program ctx ~knob:_ m ->
        let m, s =
          match ctx.decider with
          | Decider.Custom decide -> Inline.run_custom ?facts ~decide ~program m
          | Decider.Policy policy ->
            Inline.run_policy ?hot_site:ctx.hot_site ?facts ~program ~policy m
          | Decider.Heuristic heuristic ->
            Inline.run ?hot_site:ctx.hot_site ?facts ~program ~heuristic m
        in
        (m, inline_delta s));
    static_policy = None;
  }

(* --- alternative inlining strategies ------------------------------------ *)

(* Each strategy is its own engine run under its own policy; they ignore the
   decider entirely, so their decisions are heuristic-independent — the
   property Fitcache's signature soundness arguments lean on. *)

let inline_leaves =
  let policy knob facts _m =
    Leaves.policy ~leaf_size:(knob "leaf_size") ~rounds:(knob "rounds") facts
  in
  {
    name = "inline_leaves";
    knobs =
      [
        { k_name = "leaf_size"; k_lo = 1; k_hi = 60; k_default = 12 };
        { k_name = "rounds"; k_lo = 1; k_hi = 5; k_default = 2 };
      ];
    applicable = always_applicable;
    run =
      (fun ?facts program _ ~knob m ->
        let facts = match facts with Some f -> f | None -> Facts.of_program program in
        let m, s = Engine.run ~facts ~program ~policy:(policy knob facts m) m in
        (m, inline_delta s));
    static_policy = Some policy;
  }

let inline_hot =
  {
    name = "inline_hot";
    knobs =
      [
        { k_name = "hot_permille"; k_lo = 1; k_hi = 500; k_default = 50 };
        { k_name = "budget"; k_lo = 16; k_hi = 4096; k_default = 512 };
      ];
    (* No profile, no hot paths: structurally skipped under [Opt]. *)
    applicable = (fun ctx -> ctx.profile <> None);
    run =
      (fun ?facts program ctx ~knob m ->
        match ctx.profile with
        | None -> (m, zero_delta)
        | Some view ->
          let policy =
            Hotpath.policy ~hot_permille:(knob "hot_permille") ~budget:(knob "budget") view m
          in
          let m, s = Engine.run ?facts ~program ~policy m in
          (m, inline_delta s));
    static_policy = None;
  }

let inline_region =
  let region knob m = Region.policy ~budget:(knob "budget") ~depth:(knob "depth") m in
  {
    name = "inline_region";
    knobs =
      [
        { k_name = "budget"; k_lo = 16; k_hi = 4096; k_default = 512 };
        { k_name = "depth"; k_lo = 1; k_hi = 12; k_default = 6 };
      ];
    applicable = always_applicable;
    run =
      (fun ?facts program _ ~knob m ->
        let m, s = Engine.run ?facts ~program ~policy:(region knob m) m in
        (m, inline_delta s));
    static_policy = Some (fun knob _facts m -> region knob m);
  }

let cse =
  {
    name = "cse";
    knobs = [ iters_knob ];
    applicable = always_applicable;
    run =
      (fun ?facts:_ _ _ ~knob:_ m ->
        let m, n = Cse.run m in
        (m, { zero_delta with d_cse_replaced = n }));
    static_policy = None;
  }

let copyprop =
  {
    name = "copyprop";
    knobs = [ iters_knob ];
    applicable = always_applicable;
    run =
      (fun ?facts:_ _ _ ~knob:_ m ->
        let m, n = Copyprop.run m in
        (m, { zero_delta with d_copies_propagated = n }));
    static_policy = None;
  }

let dce =
  {
    name = "dce";
    knobs = [ iters_knob ];
    applicable = always_applicable;
    run =
      (fun ?facts:_ _ _ ~knob:_ m ->
        let m, n = Dce.run m in
        (m, { zero_delta with d_dce_removed = n }));
    static_policy = None;
  }

let cleanup =
  {
    name = "cleanup";
    knobs = [];
    applicable = always_applicable;
    run = (fun ?facts:_ _ _ ~knob:_ m -> (Cleanup.run m, zero_delta));
    static_policy = None;
  }

let all =
  [
    guarded_devirt; constprop; inline_leaves; inline_hot; inline; inline_region; cse;
    copyprop; dce; cleanup;
  ]

(* The passes that drive the inline engine: the set the pipeline's
   [size_peak] trajectory and Fitcache's plan-shape analysis key off. *)
let inliner_names = [ "inline_leaves"; "inline_hot"; "inline"; "inline_region" ]
let is_inliner_name name = List.mem name inliner_names

let find name = List.find_opt (fun p -> p.name = name) all
let find_knob p name = List.find_opt (fun k -> k.k_name = name) p.knobs
