open Inltune_jir
(** Small-leaf inliner strategy: iterate-to-fixpoint leaf selection,
    collapsed into one {!Engine} run via precomputed leaf levels. *)

(** Level assigned to methods that never become leaves (call cycles,
    virtual calls). *)
val never_leaf : int

(** Leaf level per method: 0 = no calls at all; k = every static callee
    has level < k; {!never_leaf} otherwise.  Built once per program value
    ({!Inltune_jir.Facts}), safe under parallel tuners. *)
val levels : Facts.t -> int array

(** [policy ~leaf_size ~rounds facts] accepts a call site iff the callee's
    leaf level is below [rounds] and its static size is at most
    [leaf_size].  Static: reads only the program and the site record, so
    {!Engine.walk} over it is exact. *)
val policy : leaf_size:int -> rounds:int -> Facts.t -> Policy.t
