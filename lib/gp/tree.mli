(** Typed expression-tree genomes for genetic-programming policy search.

    Where the GA (lib/ga) tunes the {e parameters} of the paper's fixed
    Fig. 3/4 rule, these trees are the rule itself: a boolean predicate over
    the call-site feature vector ({!Inltune_policy.Features}), free to
    discover structure the hand-written heuristic lacks.  Two syntactic
    categories — numeric expressions and boolean combinators — keep every
    genome well-typed under crossover and mutation.

    Trees are serializable artifacts like plans and policy stores: canonical
    single-line prefix text under an ["inltune-gp v1"] header, parse∘print =
    id, ["%.17g"] constants, one-line line-numbered parse errors, and a
    content {!digest} over the file form. *)

type cmp = Le | Gt

type nop = Add | Sub | Mul | Div | Min | Max

type num =
  | Feat of int                (** feature index into {!Inltune_policy.Features.names} *)
  | Const of float
  | Arith of nop * num * num

type t =
  | True
  | False
  | Cmp of cmp * num * num
  | And of t * t
  | Or of t * t
  | Not of t

(** Constants are clamped into [[const_lo, const_hi]] — Table 1's envelope
    (the largest parameter cap rounded up). *)
val const_lo : float

val const_hi : float

(** Depth cap counting every node (boolean and numeric), root at 1.
    {!clamp} prunes deeper trees deterministically. *)
val max_depth : int

(** Node-count cap; genetic operators fall back to the parent when an
    offspring would exceed it. *)
val max_size : int

(** [eval t x] decides a call site from its feature vector.  Division is
    protected (divisor magnitudes below 1e-9 return the dividend), so
    evaluation is total and finite on finite inputs. *)
val eval : t -> float array -> bool

val size : t -> int
val depth : t -> int
val num_size : num -> int
val num_depth : num -> int

(** The decode discipline — the tree analogue of [Heuristic.of_array]'s
    Table 1 clamping.  Non-finite constants become {!const_lo}, out-of-range
    ones clamp to the nearest bound; numeric subtrees past the depth budget
    collapse to their leftmost leaf, boolean ones to [False] (reject, the
    conservative direction).  Deterministic and idempotent; every tree this
    module parses or the genetic operators produce has it applied. *)
val clamp : t -> t

(** All feature indices in range, all constants finite and in range, depth
    within {!max_depth} — the invariant {!clamp} establishes. *)
val well_formed : dim:int -> t -> bool

(** ["inltune-gp v1"], the first line of the file form. *)
val header : string

(** Canonical single-line expression form, e.g.
    [(and (le (feat 0) (const 23)) (gt (feat 3) (const 0)))]. *)
val to_text : t -> string

(** Full file form: {!header}, newline, {!to_text}, newline. *)
val to_string : t -> string

(** Hex content digest of {!to_string} — the genome's identity for the
    fitness cache, checkpoints, and quarantine. *)
val digest : t -> string

(** Parse the expression form (no header).  Errors are one-line,
    token-indexed.  The result is {!clamp}ed, so printing it reproduces the
    canonical form. *)
val of_text : dim:int -> string -> (t, string) result

(** Parse the file form.  Errors are one-line and carry the 1-based line
    number (["line 1: expected header ..."], ["line 2: token 4: ..."]). *)
val of_string : dim:int -> string -> (t, string) result

(** A file or parse [Error] starts with the path. *)
val load : dim:int -> string -> (t, string) result
val save : string -> t -> (unit, string) result

(** Infix rendering with feature names, for human eyes only
    (e.g. [(callee_size <= 23)]). *)
val pretty : names:string array -> t -> string
