(* Sandboxed evaluation with one retry rule.

   One fitness evaluation of a pathological genome can exhaust its fuel
   budget, trap, or blow the stack; a days-long GA run must treat that as
   data about the genome, not as a reason to die.  [run] runs the
   evaluation and reports its outcome as a value instead of a raise.

   Every evaluation here is a deterministic simulation, so a failed attempt
   would fail again: fuel exhaustion (an injected hang included), a trap, a
   stack overflow, corrupt output and any other exception are final on the
   first attempt.  The one failure worth another attempt is an injected
   fault ([Faultinject.Injected]): its gate fires at one occurrence, and the
   next attempt is the next occurrence.  Only it is retried, at most
   [max_retries] times.

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
}

let failure_to_string f =
  Printf.sprintf "%s failed after %d attempt(s): %s" f.f_site f.f_attempts f.f_reason

type 'a outcome = { result : 'a; o_attempts : int }

(* A site's counters are bound once, when the site is declared: [run] is
   called once per fitness cell, and a first-try success resolves nothing. *)
type site = {
  s_name : string;
  s_retries : Metric.handle;
  s_failures : Metric.handle;
}

let site name =
  {
    s_name = name;
    s_retries = Metric.handle (name ^ ".retries");
    s_failures = Metric.handle (name ^ ".failures");
  }

let fail site n reason =
  Metric.bump site.s_failures;
  if Trace.enabled () then
    Trace.emit (site.s_name ^ ".failure")
      ~fields:[ ("reason", Event.Str reason); ("attempts", Event.Int n) ];
  Error { f_site = site.s_name; f_reason = reason; f_attempts = n }

(* [corrupt] inspects a successful result and may reject it as garbage;
   [classify] decides which exceptions are sandboxed — anything it rejects
   propagates to the caller untouched (e.g. a cooperative-cancellation
   exception must escape).  The GA's evaluation and dataset labelling pass
   [~corrupt:corrupt]; the serve daemon wraps whole requests in this. *)
let run ?(max_retries = 1) ?(classify = fun _ -> true) ?(corrupt = fun _ -> None) ~site f =
  let rec attempt n =
    match f () with
    | v -> (
      match corrupt v with None -> Ok { result = v; o_attempts = n } | Some r -> fail site n r)
    | exception e when classify e -> (
      match e with
      | Faultinject.Injected _ when n <= max_retries ->
        Metric.bump site.s_retries;
        attempt (n + 1)
      | _ -> fail site n (Printexc.to_string e))
  in
  attempt 1

(* The [corrupt] check of fitness evaluations: a non-finite value. *)
let corrupt v = if Float.is_finite v then None else Some (Printf.sprintf "corrupt output %h" v)
