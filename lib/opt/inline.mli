open Inltune_jir
(** Heuristic-driven method inlining (the transformation the tuned heuristic
    controls).  Semantics-preserving for well-formed (define-before-use)
    programs. *)

type stats = Engine.stats = {
  mutable sites_seen : int;
  mutable sites_inlined : int;
  mutable hot_sites_seen : int;
  mutable hot_sites_inlined : int;
}

val fresh_stats : unit -> stats

(** Why a call site was or wasn't inlined: the policy rule that fired (for
    the heuristic policy this is the Fig. 3 / Fig. 4 vocabulary), or one of
    the transformation's own guards. *)
type reason = Engine.reason =
  | Rule of Policy.verdict  (** the policy's verdict, with the rule name *)
  | Recursive               (** callee already on the inline chain *)
  | Space_cap               (** accepted by the policy, blocked by
                                {!max_expanded_size} *)

val reason_accepts : reason -> bool
val reason_name : reason -> string

(** One record per call site the inliner examined, in decision order. *)
type decision = Engine.decision = {
  d_site_owner : Ir.mid;
  d_callee : Ir.mid;
  d_callee_size : int;
  d_depth : int;
  d_caller_size : int;  (** expanded caller size when the site was decided *)
  d_reason : reason;
}

val decision_accepts : decision -> bool

(** Hard cap on the expanded size of any single method, in size-estimate
    units; a code-space sanity net above anything the heuristic's caller test
    normally allows. *)
val max_expanded_size : int

(** [run_policy ~program ~policy m] inlines call sites in [m] as decided by
    an arbitrary first-class policy.  [hot_site] (adaptive scenario) selects
    the call sites whose {!Policy.site.hot} flag is set — the heuristic
    policy takes the single-test Fig. 4 path on them.  [decisions], when
    given, collects one {!decision} record per examined call site;
    independently, every decision is emitted as an "inline.decision" trace
    event when tracing is enabled. *)
val run_policy :
  ?hot_site:(site_owner:Ir.mid -> callee:Ir.mid -> bool) ->
  ?decisions:decision Inltune_support.Vec.t ->
  ?facts:Facts.t ->
  program:Ir.program ->
  policy:Policy.t ->
  Ir.methd ->
  Ir.methd * stats

(** [run ~program ~heuristic m] is {!run_policy} with
    [Policy.of_heuristic heuristic] (the paper's Fig. 3/4 procedure). *)
val run :
  ?hot_site:(site_owner:Ir.mid -> callee:Ir.mid -> bool) ->
  ?decisions:decision Inltune_support.Vec.t ->
  ?facts:Facts.t ->
  program:Ir.program ->
  heuristic:Heuristic.t ->
  Ir.methd ->
  Ir.methd * stats

(** Same transformation driven by an arbitrary per-site decision procedure
    (used by alternative inlining strategies such as the knapsack baseline).
    The hard size cap still applies on top of [decide]. *)
val run_custom :
  ?decisions:decision Inltune_support.Vec.t ->
  ?facts:Facts.t ->
  decide:
    (site_owner:Ir.mid ->
    callee:Ir.mid ->
    callee_size:int ->
    inline_depth:int ->
    caller_size:int ->
    bool) ->
  program:Ir.program ->
  Ir.methd ->
  Ir.methd * stats
