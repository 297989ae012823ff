open Inltune_jir
open Inltune_opt

(** The paper's two-iteration measurement methodology (Section 5). *)

type measurement = {
  total_cycles : int;        (** first iteration: execution + compilation *)
  running_cycles : int;      (** best exec-only cycles of later iterations *)
  first_exec_cycles : int;
  first_compile_cycles : int;
  opt_compiles : int;
  baseline_compiles : int;
  code_bytes : int;
  icache_misses : int;
  icache_accesses : int;
  steps : int;
  ret : int;                 (** the program's result (checksum) *)
  out_hash : int;            (** hash of everything printed *)
}

(** [measure cfg plat prog] runs [iterations] VM iterations (default 2, the
    paper's minimum; the library-wide default used by {!Inltune_core.Measure}
    is 3 so the adaptive system reaches steady state).  [code_keys] is
    passed to {!Machine.create}; without it every compile is fresh.  Raises
    [Invalid_argument] if [iterations < 2]. *)
val measure :
  ?iterations:int -> ?code_keys:string array -> Machine.config -> Platform.t -> Ir.program ->
  measurement

(** [observe plat prog] interprets the program once (Opt scenario, the given
    heuristic — default: no inlining) and returns its result and the list of
    printed values.  Used by semantics-preservation tests. *)
val observe :
  ?fuel:int -> ?heuristic:Heuristic.t -> Platform.t -> Ir.program -> int * int array
