(** Sandboxed evaluation with one retry rule.

    Turns "this evaluation raised / returned garbage" into a value the
    caller can penalize, instead of an exception that aborts the search.
    Only an injected fault ({!Faultinject.Injected}) is retried; every other
    failure is final on its first attempt, because a deterministic
    simulation that failed once fails again.  Emits the ["<site>.retries"]
    and ["<site>.failures"] counters, and a ["<site>.failure"] trace event
    on final failure. *)

type failure = {
  f_site : string;
  f_reason : string;       (** printable cause of the last attempt's failure *)
  f_attempts : int;        (** total attempts made, all failed *)
}

val failure_to_string : failure -> string

(** A successful evaluation: the result and how many attempts it took
    (1 = first try). *)
type 'a outcome = { result : 'a; o_attempts : int }

(** A named evaluation site with its ["<site>.retries"] and
    ["<site>.failures"] counters bound once
    ({!Inltune_obs.Metric.handle}): declare each site once, at module level,
    so that a run that succeeds first try looks nothing up. *)
type site

val site : string -> site

(** [run ~site f] runs [f ()].  Exceptions for which [classify] holds
    (default: all) are sandboxed; the rest propagate untouched —
    cancellation and shutdown signals must escape the sandbox.  [corrupt]
    may reject a successful result as garbage (default: never).  A sandboxed
    {!Faultinject.Injected} is retried up to [max_retries] times (default
    1); any other sandboxed exception and any corrupt result fail on the
    attempt that produced them.  The result is never an exception for
    sandboxed causes: either the value with its attempt count, or a
    {!failure} describing the last attempt. *)
val run :
  ?max_retries:int ->
  ?classify:(exn -> bool) ->
  ?corrupt:('a -> string option) ->
  site:site ->
  (unit -> 'a) ->
  ('a outcome, failure) result

(** The [corrupt] check for fitness evaluations: a non-finite value is
    corrupt output (["corrupt output <hex>"]); a finite one is fine. *)
val corrupt : float -> string option
