open Inltune_opt
open Inltune_vm
module Objective = Inltune_core.Objective

(** Labeled call-site datasets: replay the optimizer over a benchmark suite
    and label each inlining decision by a flip oracle — re-measure the
    benchmark with that one decision inverted and keep whichever choice runs
    faster.  Flip measurements are fault-isolated through
    {!Inltune_resilience.Sandbox.run} (a trapping VM penalizes nothing;
    the base decision is kept as the label), and builds are resumable from an
    append-only JSONL file, the same discipline as GA checkpoints. *)

type example = {
  x_bench : string;        (** benchmark the site came from *)
  x_ordinal : int;         (** k-th policy decision of the whole run *)
  x_features : float array;(** {!Features.of_site} at decision time *)
  x_base : bool;           (** the base heuristic's decision *)
  x_label : bool;          (** the oracle's decision *)
  x_benefit : float;       (** relative metric gain of flipping; > 0 iff the
                               flip won and [x_label = not x_base] *)
}

(** One example per JSONL line; floats round-trip exactly. *)
val to_line : example -> string

val of_line : string -> (example, string) result

(** Parse a JSONL dataset file: examples in file order plus the count of
    malformed lines skipped (a build killed mid-append must still load, and
    the resumed build appends after its torn line, not onto it). *)
val load : string -> (example list * int, string) result

(** Training pairs [(features, oracle label)]. *)
val to_training : example list -> (float array * bool) array

type config = {
  scenario : Machine.scenario;
  platform : Platform.t;
  heuristic : Heuristic.t;   (** base policy whose decisions are flipped *)
  goal : Objective.goal;     (** metric the oracle compares runs under *)
  iterations : int;
  max_sites : int;           (** flip-measurement cap per benchmark; 0 = all *)
}

(** Opt scenario, x86, Jikes default heuristic, Total goal, 20 sites per
    benchmark. *)
val default_config : config

(** The base run's decisions for one benchmark: feature vector and base
    accept per ordinal, in decision order.  Deterministic. *)
val enumerate : config -> Inltune_workloads.Suites.benchmark list
  -> (string * (float array * bool) array) list

(** [Error] unless [n >= 0], the [max_sites] bound {!generate} enforces. *)
val check_max_sites : int -> (unit, string) result

(** Label every enumerated site of every benchmark.  [resume], when given,
    names an append-only JSONL file: already-labeled (bench, ordinal) pairs
    are loaded instead of re-measured, and every fresh label is appended
    immediately, so an interrupted build continues where it stopped.
    A file error, or a negative [max_sites], comes before any measurement.
    Progress counters:
    ["policy.sites_labeled"], ["policy.label_flips"],
    ["policy.label.failures"] (from the sandbox). *)
val generate :
  ?resume:string ->
  ?on_benchmark:(string -> int -> unit) ->
  config ->
  Inltune_workloads.Suites.benchmark list ->
  (example list, string) result

(** [load_or_generate ?file cfg benches] returns [file]'s examples when it
    exists and holds at least one (bumping ["policy.dataset_reused"]);
    otherwise labels from scratch via {!generate} with [file] as its resume
    journal.  The [--dataset] flag's semantics: labeling is loaded, not
    recomputed, whenever the file is already there. *)
val load_or_generate :
  ?file:string ->
  ?on_benchmark:(string -> int -> unit) ->
  config ->
  Inltune_workloads.Suites.benchmark list ->
  (example list, string) result
