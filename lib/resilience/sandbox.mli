(** Sandboxed evaluation with bounded retry and deterministic backoff.

    Turns "this evaluation raised / returned garbage" into a value the
    caller can penalize, instead of an exception that aborts the search.
    Emits the ["<site>.retries"], ["<site>.failures"], and
    ["<site>.backoff_units"] counters, and a ["<site>.failure"] trace event
    on final failure. *)

type failure = {
  f_site : string;
  f_reason : string;       (** printable cause of the last attempt's failure *)
  f_attempts : int;        (** total attempts made, all failed *)
  f_backoff_units : int;   (** simulated backoff work units consumed *)
}

val failure_to_string : failure -> string

(** Deterministic exponential backoff schedule: [2^(attempt-1)] simulated
    work units after the given (1-based) failed attempt, capped. *)
val backoff_units : attempt:int -> int

(** A successful evaluation: the result and how many attempts it took
    (1 = first try). *)
type 'a outcome = { result : 'a; o_attempts : int }

(** [run ~site f] runs [f ()].  [corrupt] may reject a successful result as
    garbage (default: never); exceptions for which [classify] holds (default:
    all) are transient.  Both are retried up to [max_retries] times (default
    1).  Exceptions [classify] rejects propagate untouched — cancellation and
    shutdown signals must escape the sandbox, not be retried.  The result is
    never an exception for sandboxed causes: either the value with its
    attempt count, or a {!failure} describing why every attempt failed. *)
val run :
  ?max_retries:int ->
  ?classify:(exn -> bool) ->
  ?corrupt:('a -> string option) ->
  site:string ->
  (unit -> 'a) ->
  ('a outcome, failure) result

(** The [corrupt] check for fitness evaluations: a non-finite value is
    corrupt output (["corrupt output <hex>"]); a finite one is fine. *)
val corrupt : float -> string option
