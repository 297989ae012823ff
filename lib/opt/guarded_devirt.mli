open Inltune_jir

(** Profile-guided guarded devirtualization: monomorphic virtual sites
    become a class guard around a static (inlinable) call with the virtual
    call on the slow path.  Semantics-preserving for any oracle. *)

type site_oracle = site_owner:Ir.mid -> slot:int -> Ir.kid option

(** Derive the oracle from adaptive-profile edge counts: a site is
    monomorphic when exactly one implementation of the slot was ever called
    from the method and exactly one class provides it. *)
val oracle_of_profile :
  program:Ir.program ->
  edge_count:(site_owner:Ir.mid -> callee:Ir.mid -> int) ->
  site_oracle

type stats = { mutable sites_guarded : int }

(** Guard every virtual site the oracle calls monomorphic.  Returns the
    input method itself (physically) when it guards nothing. *)
val run : program:Ir.program -> oracle:site_oracle -> Ir.methd -> Ir.methd * stats
