(** Online profile data for the adaptive optimization system: per-method
    invocation counts, timer-style samples, and per-call-edge counters used
    to classify call sites as hot (the paper's Fig. 4 path).

    Call edges live in two representations: static call sites interned to
    dense ids with flat count arrays (the fast path of the flat
    interpreter), and a hashtable for virtual-dispatch edges and the
    reference interpreter.  {!edge_count} sums both, so either interpreter
    produces the same observable numbers. *)

type t

(** [create nmethods] — all counters zero. *)
val create : int -> t

val nmethods : t -> int

(** All dynamic calls seen so far (static sites and dynamic edges). *)
val total_calls : t -> int

(** Distinct static call sites interned so far. *)
val interned_sites : t -> int

val record_invocation : t -> int -> unit

(** [record_call t ~site_owner ~callee] bumps the edge counter (hashtable
    path, used by the reference interpreter). *)
val record_call : t -> site_owner:int -> callee:int -> unit

(** Same counter as {!record_call}; the flat interpreter's entry point for
    virtual dispatch, which also surfaces fresh dynamic edges as the
    [vm.dynamic_edges] counter. *)
val record_call_dynamic : t -> site_owner:int -> callee:int -> unit

(** [intern t ~site_owner ~callee] returns the dense site id for a static
    call edge, creating it on first sight (lowering-time only). *)
val intern : t -> site_owner:int -> callee:int -> int

(** [record_site t sid] bumps the interned site counter — the flat
    interpreter's per-call fast path.  [sid] must come from {!intern}. *)
val record_site : t -> int -> unit

val record_sample : t -> int -> unit
val samples : t -> int -> int
val invocations : t -> int -> int

(** Combined count for an edge: interned static sites plus dynamic edges. *)
val edge_count : t -> site_owner:int -> callee:int -> int

(** [hot_site t ~fraction ~floor ~site_owner ~callee]: the edge carries at
    least [fraction] of all dynamic calls seen so far, with an absolute
    [floor] for early promotion decisions. *)
val hot_site : t -> fraction:float -> floor:int -> site_owner:int -> callee:int -> bool

(** The edge count {!hot_site} asks for when [total_calls] calls have been
    recorded. *)
val hot_threshold : fraction:float -> floor:int -> total_calls:int -> int

(** [owned_edges t ~owned] is every edge with a nonzero {!edge_count} whose
    owner passes [owned], flattened as [key; count] pairs in increasing key
    order, where an edge's key is [site_owner * nmethods t + callee]. *)
val owned_edges : t -> owned:(int -> bool) -> int array

(** The [n] methods with the most samples, hottest first. *)
val hottest : t -> int -> int list
