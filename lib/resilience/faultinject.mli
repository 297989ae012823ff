(** Deterministic fault injection for exercising the failure paths in CI.

    Faults are armed per call site and 1-based call count: the spec
    ["eval:raise@3"] makes the 3rd {!check} of site ["eval"] return
    [Some Raise].  Several comma-separated specs may be armed at once,
    including several for the same site.  Nothing is armed by default, and
    an unarmed {!check} costs one ref read. *)

(** What the instrumented site should do when its turn comes:
    [Raise] an {!Injected} exception, [Hang] by burning the evaluation's
    whole fuel budget, or return [Corrupt] output (a NaN fitness). *)
type action = Raise | Hang | Corrupt

(** The exception injected sites raise for {!Raise} faults. *)
exception Injected of string

val action_name : action -> string

type spec = { site : string; action : action; at : int }

(** Parse a comma-separated fault list ([SITE:ACTION@K,...]).  The empty
    string is no faults. *)
val parse : string -> (spec list, string) result

(** Arm exactly these faults, resetting all per-site call counts. *)
val install : spec list -> unit

(** Disarm everything and reset call counts. *)
val clear : unit -> unit

(** Whether any fault is armed. *)
val active : unit -> bool

(** Arm faults from [INLTUNE_FAULTS]; unset/empty arms nothing.  A malformed
    value is reported, not ignored — silently dropping an injection would
    make a failing CI job look healthy. *)
val init_from_env : unit -> (unit, string) result

(** Bump the site's call count and return the armed action for this call, if
    any.  Safe to call from worker domains (counting is mutex-guarded). *)
val check : string -> action option

(** How many times the site has been checked (tests / diagnostics). *)
val calls : string -> int
