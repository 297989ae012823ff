open Inltune_jir
(** First-class optimizer passes: each transformation in this directory
    wrapped behind a uniform interface (name, declared integer knobs, run).
    {!Plan} schedules pass instances by name; {!Pipeline} interprets the
    schedule. *)

(** A declared integer knob with its inclusive range and default.  Knob
    semantics belong to the interpreter — the only knob today, ["iters"],
    reruns the pass that many times. *)
type knob = {
  k_name : string;
  k_lo : int;
  k_hi : int;
  k_default : int;
}

(** Uniform per-pass stats.  Fields mirror the [Pipeline.stats] counters;
    each pass fills only its own, so a field-wise sum of a run's deltas
    equals the pipeline totals exactly. *)
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

val zero_delta : delta
val add_delta : delta -> delta -> delta

(** The pass's own transform count (every field summed; disjoint per pass). *)
val transforms : delta -> int

(** Everything a pass may consult besides the program and the method: the
    inlining decider and the adaptive scenario's profile-derived inputs. *)
type ctx = {
  decider : Decider.t;
  hot_site : (site_owner:Ir.mid -> callee:Ir.mid -> bool) option;
  devirt_oracle : Guarded_devirt.site_oracle option;
  profile : Hotpath.view option;
      (** adaptive scenario: live call-edge counts for the hot-path
          strategy; [None] under [Opt] *)
}

(** The engine run an inliner-kind pass makes: the policy it decides with
    and the hot-site predicate it hands {!Engine.run} (the decider-driven
    [inline] item passes the context's; the strategies none). *)
type engine_run = {
  policy : Policy.t;
  hot_site : (site_owner:Ir.mid -> callee:Ir.mid -> bool) option;
}

type t = {
  name : string;
  knobs : knob list;
  applicable : ctx -> bool;
      (** structurally skipped (no run, no span) when false — e.g. guarded
          devirtualization without a profile oracle *)
  context_free : bool;
      (** [applicable] and [run] read nothing of the {!ctx} — neither the
          decider nor any profile-derived input — so the output is a
          function of the program, the input method and the knobs alone.
          Consulted only for passes that can follow a plan's last
          inliner-kind item ({!Pipeline.context_free_suffix}), so among
          the built-ins only [guarded_devirt]'s [false] matters; the
          inliners' values are never read.  The trajectory cache memoizes
          only runs of such passes. *)
  engine : (Facts.t -> ctx -> knob:(string -> int) -> root_size:int -> engine_run option) option;
      (** [Some build] for the inliner-kind passes ({!inliner_names}):
          [build facts ctx ~knob ~root_size] is the engine run the pass
          makes on a method of size [root_size] — [None] when it makes
          none ([inline_hot] without a profile) — and [run] is exactly that
          {!Engine.run}.  A decision walk ({!Engine.walk_from}) that takes
          its policy from here therefore reports the verdicts [run] acts
          on.  [None] for every other pass. *)
  run :
    ?facts:Facts.t -> Ir.program -> ctx -> knob:(string -> int) -> Ir.methd -> Ir.methd * delta;
      (** [knob] resolves this instance's declared knobs to their effective
          values (plan value or declared default); ["iters"] is interpreted
          by the pipeline, every other knob by the pass itself.  [facts] is
          the program's {!Inltune_jir.Facts} entry; the inliners look it up
          when it is not given. *)
}

val guarded_devirt : t
val constprop : t

(** [constprop_original facts mid]: what {!constprop} returns for the
    program's own method [mid], computed once per program and method
    ({!Inltune_jir.Facts}). *)
val constprop_original : Facts.t -> Ir.mid -> Ir.methd * delta

val inline : t

(** The three alternative inlining strategies, each a full engine run under
    its own policy (the decider is ignored): iterate-to-fixpoint small-leaf
    selection ({!Leaves}), profile-guided hot-path expansion ({!Hotpath};
    inapplicable without a profile), and per-root region growth
    ({!Region}). *)
val inline_leaves : t
val inline_hot : t
val inline_region : t

val cse : t
val copyprop : t
val dce : t
val cleanup : t

(** Every registered pass, in canonical (default-schedule) order. *)
val all : t list

(** The pass names that drive the inline engine (["inline"] and the three
    strategies) — the set the pipeline's size trajectory and Fitcache's
    plan-shape analysis key off. *)
val inliner_names : string list

val is_inliner_name : string -> bool
val find : string -> t option
val find_knob : t -> string -> knob option
