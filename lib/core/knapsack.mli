open Inltune_jir
open Inltune_vm

(** The knapsack-oracle inlining baseline of Arnold et al. (DYNAMO'00),
    discussed in the paper's Related Work: select call edges to inline by
    benefit/cost ratio under a code-expansion budget, using a *complete*
    profile of the run — information a dynamic compiler does not have. *)

type plan = {
  selected : (int, unit) Hashtbl.t;
  nmethods : int;
  budget : int;      (** allowed code growth, size units *)
  spent : int;       (** growth actually claimed by selected edges *)
  candidates : int;  (** dynamic call edges considered *)
  chosen : int;      (** edges selected *)
}

(** The growth budget's bound: a finite fraction >= 0.  A limit whose
    budget exceeds [max_int] size units saturates there. *)
val check_limit : float -> (unit, string) result

(** Profile the program (inlining off) and greedily select edges.
    [expansion_limit] is the growth budget as a fraction of total program
    size (default 0.10, Arnold et al.'s "modest" limit); raises
    [Invalid_argument] outside {!check_limit}. *)
val build_plan : ?expansion_limit:float -> Platform.t -> Ir.program -> plan

(** The per-site decision procedure compiling the plan (direct sites only). *)
val decision :
  plan ->
  site_owner:Ir.mid ->
  callee:Ir.mid ->
  callee_size:int ->
  inline_depth:int ->
  caller_size:int ->
  bool

(** Build the plan for a benchmark and measure it under the Opt scenario. *)
val measure :
  ?expansion_limit:float ->
  ?iterations:int ->
  Platform.t ->
  Inltune_workloads.Suites.benchmark ->
  plan * Measure.times
