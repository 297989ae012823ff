open Inltune_jir
open Inltune_opt
open Inltune_vm

(** Call-site feature extraction: a fixed-width numeric vector per
    {!Policy.site}, the input representation both for labeled datasets and
    for trained policies at decision time.

    Extraction is deterministic: the static part depends only on the program
    (computed once per program value, {!make_ctx}); the dynamic part reads the
    profile attached with {!with_profile} at the moment of the decision.
    Given the same program and the same profile state, the vector for a site
    is byte-identical across runs and across domains. *)

type ctx

(** The per-method static features, computed once per program value in
    its fact table ({!Inltune_jir.Facts}; O(program size) the first time).
    The context carries no profile: the [hotness] and [edge_calls] features
    read as 0 until {!with_profile}. *)
val make_ctx : Ir.program -> ctx

(** O(1): the same static context with live profile data attached.  Cheap
    enough to call from a per-compile policy factory. *)
val with_profile : ctx -> Profile.t -> ctx

(** Number of features in a vector. *)
val dim : int

(** Feature names, in vector order (length {!dim}). *)
val names : string array

(** The feature vector for one call site (length {!dim}). *)
val of_site : ctx -> Policy.site -> float array

(** Canonical text form: the features joined by single spaces, each printed
    with ["%.17g"] (so equal vectors have equal strings). *)
val vector_to_string : float array -> string

(** All static call sites of a program as feature vectors, in deterministic
    (method id, block, instruction) order, paired with the callee's method
    id.  Used by the [features] CLI command and the determinism tests;
    [inline_depth] is 1 and [hot]/[edge_calls] read the context's profile. *)
val of_program : ctx -> Ir.program -> (Policy.site * float array) array
