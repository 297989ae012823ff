(* Sandboxed evaluation with bounded retry.

   One fitness evaluation of a pathological genome can exhaust its fuel
   budget, trap, or blow the stack; a days-long GA run must treat that as
   data about the genome, not as a reason to die.  [run] runs one
   evaluation attempt, classifies any exception as sandboxable or not,
   retries transient failures a bounded number of times with a deterministic
   backoff, and reports the final outcome as a value instead of a raise.

   Backoff is counted in simulated work units (doubling per attempt), not
   wall-clock sleeps: the tuning loop is deterministic and the "time" that
   matters is the simulator's, so the units are recorded — in the returned
   outcome and the "<site>.backoff_units" counter — rather than slept.

   Corrupt output is a failure too: a fitness must be a finite float, and a
   NaN/infinity (from injected faults or a broken objective) would otherwise
   poison every comparison downstream of the memo cache. *)

module Metric = Inltune_obs.Metric
module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event

type failure = {
  f_site : string;
  f_reason : string;   (* printable cause of the last attempt's failure *)
  f_attempts : int;    (* total attempts made, all failed *)
  f_backoff_units : int;  (* simulated work units of backoff consumed *)
}

let failure_to_string f =
  Printf.sprintf "%s failed after %d attempt(s): %s" f.f_site f.f_attempts f.f_reason

(* Deterministic exponential backoff: 1, 2, 4, ... simulated units after
   attempt 1, 2, 3, ...; capped so a large retry budget cannot overflow. *)
let backoff_units ~attempt = 1 lsl min 20 (max 0 (attempt - 1))

let default_classify _ = true
let no_corrupt _ = None

(* Retries any computation.  [corrupt] inspects a successful result and may
   reject it as garbage (retried like an exception); [classify] decides
   which exceptions are sandboxable — anything it rejects propagates to the
   caller untouched (e.g. a cooperative-cancellation exception must escape,
   not be retried).  The GA's evaluation and dataset labelling pass
   [~corrupt:corrupt]; the serve daemon wraps whole requests in this. *)
type 'a outcome = { result : 'a; o_attempts : int }

let run ?(max_retries = 1) ?(classify = default_classify) ?(corrupt = no_corrupt) ~site f =
  let c_retries = Metric.counter (site ^ ".retries") in
  let c_failures = Metric.counter (site ^ ".failures") in
  let c_backoff = Metric.counter (site ^ ".backoff_units") in
  let max_attempts = 1 + max 0 max_retries in
  let rec attempt n backoff =
    let outcome =
      match f () with
      | v -> ( match corrupt v with None -> Ok v | Some reason -> Error reason)
      | exception e when classify e -> Error (Printexc.to_string e)
    in
    match outcome with
    | Ok result -> Ok { result; o_attempts = n }
    | Error _ when n < max_attempts ->
      let units = backoff_units ~attempt:n in
      Metric.incr c_retries;
      Metric.add c_backoff units;
      attempt (n + 1) (backoff + units)
    | Error reason ->
      Metric.incr c_failures;
      let fl = { f_site = site; f_reason = reason; f_attempts = n; f_backoff_units = backoff } in
      if Trace.enabled () then
        Trace.emit (site ^ ".failure")
          ~fields:
            [
              ("reason", Event.Str reason);
              ("attempts", Event.Int n);
              ("backoff_units", Event.Int backoff);
            ];
      Error fl
  in
  attempt 1 0

(* The [corrupt] check of fitness evaluations: a non-finite value. *)
let corrupt v = if Float.is_finite v then None else Some (Printf.sprintf "corrupt output %h" v)
