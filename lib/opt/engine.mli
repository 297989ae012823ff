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

(** Why a call site was or wasn't inlined: the policy rule that fired, or
    one of the engine's own guards. *)
type reason =
  | Rule of Policy.verdict  (** the policy's verdict, with the rule name *)
  | Recursive               (** callee already on the inline chain *)
  | Space_cap               (** accepted by the policy, blocked by
                                {!max_expanded_size} *)

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
    {!Inltune_jir.Facts} entry, looked up when not given; [size], when
    given, must be [Size.of_method m] (a caller that has it saves the
    engine computing it).

    [m]'s own call sites are decided first, in order, until one is
    accepted (the recursion guard and {!max_expanded_size} apply as
    everywhere).  If none is, the result is [m] itself — the rebuild
    would copy it block for block — with the same stats, and the
    ["engine.zero_accept"] counter counts the run.  Otherwise the output
    is built replaying those verdicts.  Either way every site is put to
    the policy exactly once, and the records and events come in decision
    order.  [run] never modifies [m] or the program.

    The output is a function of the program, [m] and the effective accept
    bits {!walk_from} reports for [m] under the same policy and [hot_site]:
    the policy and the profile reach the code only through those verdicts,
    and the recursion guard and {!max_expanded_size} act alike in both. *)
val run :
  ?hot_site:(site_owner:Ir.mid -> callee:Ir.mid -> bool) ->
  ?decisions:decision Inltune_support.Vec.t ->
  ?facts:Facts.t ->
  ?size:int ->
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

(** The callee ids of one method's [Call] instructions, in block, then
    instruction, order: its entry in {!call_sites}. *)
val callees : Ir.methd -> int array

(** The call-site tables of the program's own methods, built once per
    program ({!Inltune_jir.Facts}); [sizes] is {!Inltune_jir.Facts.sizes}. *)
val bodies : Facts.t -> call_sites

(** [walk_from ~bodies ~callees ~size ?hot_site ~policy mid emit] runs only
    the decision procedure of {!run} on a method [mid] whose root call
    sites are [callees] (its {!callees} table) and whose size is [size]
    ({!Size.of_method}) — no code is built, nothing is executed — against a
    program whose original methods [bodies] describes.  It calls [emit]
    once per policy-decided call site with the effective verdict, in the
    exact order {!run} decides them: accepted callees are descended into
    depth-first through [bodies]; recursion-guarded sites are
    policy-independent and contribute no bit; [hot_site] sets the
    {!Policy.site.hot} flag as in {!run} (no site is hot without it);
    {!max_expanded_size} overrides acceptances the same way.  The method
    may be an original one or the output of earlier engine runs and
    passes: every root site is owned by [mid] either way.  The bits fully
    determine {!run}'s output.  Exceptions from [hot_site] and the policy
    propagate. *)
val walk_from :
  bodies:call_sites ->
  callees:int array ->
  size:int ->
  ?hot_site:(site_owner:Ir.mid -> callee:Ir.mid -> bool) ->
  policy:Policy.t ->
  Ir.mid ->
  (bool -> unit) ->
  unit

(** [walk ~bodies ~roots ~policy mid] is {!walk_from} over [roots]' entry for
    [mid], no site hot, with the bits as a '1'/'0' string: the inlining plan
    behind the fitness cache's [w:] signatures.  Equal plans imply
    identical compilation. *)
val walk : bodies:call_sites -> roots:call_sites -> policy:Policy.t -> Ir.mid -> string
