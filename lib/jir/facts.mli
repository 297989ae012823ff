(** Per-program compile facts: everything the compilers and the fitness
    cache derive from a program value alone, computed once per value.

    Facts are pure functions of an immutable program, so an entry is keyed
    by the program value itself (physical identity) and held weakly — an
    ephemeron per program hash — so it lives exactly as long as its
    program.  Static method sizes come with the entry; every other fact is
    a typed {!key} declared by the layer that computes it and built on
    first use, once per program: racing domains wait for one build and get
    the same value.  A build that raises keeps nothing, so it raises again
    on the next use.  Each build bumps the counter ["facts.<name>.built"]. *)

type t

(** The table's entry for a program value, created (with its method sizes)
    on first lookup.  One lookup per VM or per fitness query; pass the
    entry on rather than looking it up per compile. *)
val of_program : Ir.program -> t

val program : t -> Ir.program

(** {!Size.of_method} of every method, indexed by method id. *)
val sizes : t -> int array

(** {!Validate.check_exn}, run once per program value: success is
    remembered, a failure raises [Invalid_argument] on every call. *)
val validate : t -> unit

(** Hex MD5 of the program's canonical text form ({!Text.to_string}). *)
val digest : t -> string

(** A program fact of type ['a], with its build function.  [name] names
    the build counter.  Declare keys once, at module level. *)
type 'a key

val key : name:string -> (t -> 'a) -> 'a key

(** The fact for this entry, built on first use. *)
val get : t -> 'a key -> 'a
