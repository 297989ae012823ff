open Inltune_jir
(** Profile-guided hot-path inliner strategy: inline the call edges that
    carry at least a tunable per-mille of all recorded calls, within a
    per-root expansion budget. *)

(** The strategy's window onto the live profile: per-edge execution counts
    and the total number of recorded calls.  Installed by the VM at
    compile time under the adaptive scenarios; absent under [Opt] (no
    profile exists), which makes the pass structurally inapplicable. *)
type view = {
  edge_count : site_owner:Ir.mid -> callee:Ir.mid -> int;
  total_calls : unit -> int;
}

(** [policy ~hot_permille ~budget view ~root_size] accepts a call site iff
    its edge carries at least [hot_permille] ‰ of all recorded calls and
    the expansion over a root of [root_size] ({!Inltune_jir.Size.of_method}
    of the method the engine runs on — the pass's input) stays within
    [budget].  Not static — decisions read the live profile through
    [view]; under a fixed [view] they read nothing else but the site
    record and [root_size], so {!Engine.walk_from} over it is exact. *)
val policy : hot_permille:int -> budget:int -> view -> root_size:int -> Policy.t
