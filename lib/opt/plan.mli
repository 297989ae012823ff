(** Serializable optimization plans: an ordered schedule of {!Pass}
    instances with per-instance enable flags and knob values.
    [Pipeline.run] interprets one; {!default} reproduces the historical
    hard-coded schedule bit-identically. *)

type item = {
  pass : string;                (** a registered {!Pass} name *)
  enabled : bool;
  knobs : (string * int) list;  (** declared-knob values; omitted = default *)
}

type t = { items : item array }

(** The historical pipeline — guarded_devirt, constprop, inline, constprop,
    cse, copyprop, dce, cleanup, all enabled with default knobs — plus the
    three alternative inlining strategies (inline_leaves / inline_hot
    before the inline item, inline_region after it) scheduled *disabled*,
    so the default plan's behavior is bit-identical to the pre-strategy
    pipeline. *)
val default : t

(** {!default} with the inline item disabled (the Fig. 1 baseline and the
    O1 tier). *)
val no_inline : t

(** Disable every item scheduling the named pass. *)
val disable : string -> t -> t

(** Disable the dataflow items (constprop / cse / copyprop / dce) — the
    "inlining without optimization" ablation.  Devirtualization, inlining,
    and CFG cleanup stay. *)
val without_dataflow : t -> t

val has_enabled : string -> t -> bool
val has_item : string -> t -> bool

(** Effective knob value of an item (stored value, else the pass's declared
    default).  Raises [Invalid_argument] for an undeclared knob. *)
val item_knob : item -> string -> int

(** Check every item against the pass registry: unknown pass, unknown knob,
    out-of-range value, or a duplicated inliner-kind pass is a one-line
    [Error]. *)
val validate : t -> (t, string) result

(** Canonical text form ("inltune-plan v1" header + one "pass" line per
    item, every declared knob spelled out).  A fixpoint of {!of_string}. *)
val to_string : t -> string

(** Parse and validate the text form.  Blank lines and '#' comments are
    skipped; any malformed or invalid line is a one-line [Error] naming the
    line number. *)
val of_string : string -> (t, string) result

(** Canonical-text equality (knob defaults normalized away). *)
val equal : t -> t -> bool

val is_default : t -> bool

(** Hex digest of the canonical text — the plan tag in fitness-cache keys. *)
val digest : t -> string

(** The first enabled inliner-kind item ({!Pass.inliner_names}) reached
    through the canonical pre-inline schedule (optional guarded_devirt +
    exactly one single-iteration constprop), ignoring passes [skip] deems
    structurally inapplicable; [None] when the schedule diverges from what
    [Engine.walk] over once-constprop'd methods assumes, or no inliner is
    enabled.  The decision-signature cache's plan-shape analysis. *)
val first_walkable_inliner : ?skip:(string -> bool) -> t -> item option

(** Whether [Engine.walk] over once-constprop'd methods reproduces this
    plan's exact inline decisions under Opt (no profile inputs): the first
    walkable inliner is the decider-driven ["inline"] item.  The
    decision-signature cache uses the exact heuristic/policy walk signature
    iff this holds. *)
val walk_compatible : t -> bool

(** {2 Genome encoding} — the plan-gene tail the GA appends to the five
    Table 1 genes: pass toggles, post-inline strengths, payoff-pass order.
    The pre-inline constprop and final cleanup are pinned on. *)

val gene_names : string array

(** Inclusive per-gene ranges, in {!gene_names} order. *)
val tunable_ranges : (int * int) array

(** Genes that decode to {!default}. *)
val default_genes : int array

(** Decode a plan-gene vector; raises on wrong arity and clamps each gene
    into its range (corrupt checkpoints cannot produce an invalid plan). *)
val of_genes : int array -> t
