open Inltune_opt

(** Serialized inlining policies: the trivial five-threshold baseline (a
    {!Heuristic.t}, which must reproduce the Fig. 3/4 procedure exactly) and
    trained decision trees.

    Loading validates like {!Heuristic.of_array} clamps genes: threshold
    genomes are clamped into the Table 1 ranges, tree files are checked for
    shape, feature range, and finite thresholds — a corrupt file is an
    [Error] with a one-line message, never an exception. *)

type t =
  | Threshold of Heuristic.t  (** the paper's parametric heuristic *)
  | Tree of Dtree.t           (** a trained CART policy *)

val kind_name : t -> string

(** Text form: a ["inltune-policy v1 <kind>"] header line followed by the
    payload.  {!of_string} accepts exactly this. *)
val to_string : t -> string

val of_string : string -> (t, string) result

val save : string -> t -> (unit, string) result

(** [Error], starting with the path, on an unreadable file (a directory
    included) as well as on corrupt content. *)
val load : string -> (t, string) result
