(** Region/depth-budget inliner strategy: grow an inlined region around
    each root method within a per-root expansion budget and depth cap. *)

(** [policy ~budget ~depth ~root_size] accepts a call site iff the inline
    chain depth is at most [depth] and the region's total expansion over a
    root of [root_size] ({!Inltune_jir.Size.of_method} of the method the
    engine runs on — the pass's input, not the original method), callee
    included, stays within [budget].  Static: reads only the site record
    and [root_size], so {!Engine.walk_from} over it is exact. *)
val policy : budget:int -> depth:int -> root_size:int -> Policy.t
