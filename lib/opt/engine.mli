open Inltune_jir
(** The shared inline engine: one transformation, many strategies.

    Every inlining strategy in the repository — the paper's tuned Fig. 3/4
    heuristic, the small-leaf / hot-path / region strategies, the knapsack
    baseline, trained policy trees — drives this engine through a
    first-class {!Policy.t}.  The engine owns the mechanics (splicing,
    register/label remapping, the recursion guard, the absolute
    {!max_expanded_size} cap, decision recording and tracing); strategies
    own only the per-site accept/reject choice. *)

type stats = {
  mutable sites_seen : int;
  mutable sites_inlined : int;
  mutable hot_sites_seen : int;
  mutable hot_sites_inlined : int;
}

val fresh_stats : unit -> stats

(** Why a call site was or wasn't inlined: the policy rule that fired, or
    one of the engine's own guards. *)
type reason =
  | Rule of Policy.verdict  (** the policy's verdict, with the rule name *)
  | Recursive               (** callee already on the inline chain *)
  | Space_cap               (** accepted by the policy, blocked by
                                {!max_expanded_size} *)

val reason_accepts : reason -> bool
val reason_name : reason -> string

(** One record per call site the engine examined, in decision order. *)
type decision = {
  d_site_owner : Ir.mid;
  d_callee : Ir.mid;
  d_callee_size : int;
  d_depth : int;
  d_caller_size : int;  (** expanded caller size when the site was decided *)
  d_reason : reason;
}

val decision_accepts : decision -> bool

(** Hard cap on the expanded size of any single method, in size-estimate
    units; a code-space sanity net above anything a policy's caller test
    normally allows. *)
val max_expanded_size : int

(** [run ~program ~policy m] inlines call sites in [m] as decided by the
    policy.  [hot_site] (adaptive scenario) selects the call sites whose
    {!Policy.site.hot} flag is set.  [decisions], when given, collects one
    {!decision} record per examined call site; independently, every decision
    is emitted as an "inline.decision" trace event when tracing is
    enabled.  Callee sizes come from [facts], the program's
    {!Inltune_jir.Facts} entry, looked up when not given. *)
val run :
  ?hot_site:(site_owner:Ir.mid -> callee:Ir.mid -> bool) ->
  ?decisions:decision Inltune_support.Vec.t ->
  ?facts:Facts.t ->
  program:Ir.program ->
  policy:Policy.t ->
  Ir.methd ->
  Ir.methd * stats

(** A program's call sites as flat per-method tables, indexed by method
    id: [sizes] holds each method's static size estimate ({!Size.of_method})
    and [callees] the callee ids of its [Call] instructions in block, then
    instruction, order — the order {!run} decides them. *)
type call_sites = {
  sizes : int array;
  callees : int array array;
}

(** [call_sites methods] tabulates [methods] (indexed by method id). *)
val call_sites : Ir.methd array -> call_sites

(** The call-site tables of the program's own methods, built once per
    program ({!Inltune_jir.Facts}); [sizes] is {!Inltune_jir.Facts.sizes}. *)
val bodies : Facts.t -> call_sites

(** [walk ~bodies ~roots ~policy mid] runs only the decision procedure for
    method [mid] — no code is built, nothing is executed — and returns its
    inlining plan: one '1'/'0' per policy-decided call site, in the exact
    order {!run} decides them when it transforms the method [roots]
    describes against a program whose original methods [bodies] describes
    (the root's sites and starting size come from [roots]; accepted callees
    are descended into depth-first through [bodies]; recursion-guarded sites
    are policy-independent and contribute no bit; {!max_expanded_size}
    overrides acceptances the same way).  No site is hot.  The plan fully
    determines the transformed code, so equal plans imply identical
    compilation — the semantic cache key fitness caching relies on. *)
val walk : bodies:call_sites -> roots:call_sites -> policy:Policy.t -> Ir.mid -> string
