(** Content-keyed, byte-bounded LRU cache of optimizing-tier compile fronts
    ({!Compile.opt_front}).

    The caller supplies the key and vouches that it determines the front:
    the machine consults the cache only with the per-method keys the fitness
    cache derives from each method's exact inline-decision walk under the
    [Opt] scenario.  Entries are [Marshal] blobs held in process memory;
    each hit decodes a private copy.  Counters: ["vm.code_cache.hits"],
    ["vm.code_cache.misses"], ["vm.code_cache.evictions"] (entries dropped
    to stay within the budget). *)

type t

(** Fixed bytes charged per entry on top of its key and blob. *)
val entry_overhead : int

(** [create ~budget] is an empty cache whose accounted bytes (blob + key +
    {!entry_overhead} per entry) never exceed [budget]. *)
val create : budget:int -> t

(** The instance the machine consults, with a fixed 1 MiB budget.
    Emptied by [Fitcache.clear]. *)
val global : t

(** [find_or_compile t key compile] returns a fresh decode of the front
    stored under [key], or runs [compile], stores its encoding (evicting
    least recently used entries past the budget) and returns it. *)
val find_or_compile : t -> string -> (unit -> Compile.opt_front) -> Compile.opt_front

val clear : t -> unit

(** Accounted bytes currently held. *)
val bytes : t -> int

(** Number of entries. *)
val length : t -> int

val mem : t -> string -> bool
