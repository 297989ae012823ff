(* Deterministic fault injection.

   Long tuning runs only stay robust if the failure paths — retry, penalty,
   quarantine, checkpoint recovery — are exercised in CI, and real faults
   (fuel exhaustion, traps on pathological genomes) are too rare and too
   input-dependent to rely on.  This module lets a test or the
   [INLTUNE_FAULTS] environment variable arm faults at precise call counts:
   "the 3rd evaluation raises", "the 7th returns corrupt output".

   A fault spec is [SITE:ACTION@K]: at the K-th (1-based) [check] of SITE,
   the given action is returned.  Several specs are comma-separated and may
   target the same site.  Sites are just strings; the evaluation stack checks
   the "eval" site once per fitness evaluation attempt.

   Counting is process-global and mutex-guarded, so it is safe to check from
   worker domains; with parallel evaluation the K-th check is whichever
   domain gets there K-th, which is deterministic only under [domains = 1]
   (what the fault-path tests use). *)

type action = Raise | Hang | Corrupt

exception Injected of string

let action_name = function Raise -> "raise" | Hang -> "hang" | Corrupt -> "corrupt"

let action_of_string = function
  | "raise" -> Some Raise
  | "hang" -> Some Hang
  | "corrupt" -> Some Corrupt
  | _ -> None

type spec = { site : string; action : action; at : int }

let parse_one str =
  match String.split_on_char ':' (String.trim str) with
  | [ site; rest ] when site <> "" -> (
    match String.split_on_char '@' rest with
    | [ act; k ] -> (
      match (action_of_string act, int_of_string_opt k) with
      | Some action, Some at when at >= 1 -> Ok { site; action; at }
      | Some _, _ -> Error (Printf.sprintf "bad call index %S (need an integer >= 1)" k)
      | None, _ -> Error (Printf.sprintf "unknown action %S (use raise, hang, or corrupt)" act))
    | _ -> Error (Printf.sprintf "bad fault spec %S (expected SITE:ACTION@K)" str))
  | _ -> Error (Printf.sprintf "bad fault spec %S (expected SITE:ACTION@K)" str)

let parse str =
  if String.trim str = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest -> ( match parse_one part with Ok s -> go (s :: acc) rest | Error _ as e -> e)
    in
    go [] (String.split_on_char ',' str)

(* --- armed state --------------------------------------------------------- *)

let mu = Mutex.create ()
let specs : spec list ref = ref []
let calls_tbl : (string, int) Hashtbl.t = Hashtbl.create 4

(* Fast path: one plain read on the hot path when no faults are armed.  The
   flag is only flipped under [mu] and before any worker domain starts. *)
let armed = ref false

let install ss =
  Mutex.protect mu (fun () ->
      specs := ss;
      Hashtbl.reset calls_tbl;
      armed := ss <> [])

let clear () = install []

let active () = !armed

let env_var = "INLTUNE_FAULTS"

let init_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok ()
  | Some str -> (
    match parse str with
    | Ok ss ->
      install ss;
      Ok ()
    | Error msg -> Error (Printf.sprintf "%s: %s" env_var msg))

let check site =
  if not !armed then None
  else
    Mutex.protect mu (fun () ->
        let n = 1 + Option.value (Hashtbl.find_opt calls_tbl site) ~default:0 in
        Hashtbl.replace calls_tbl site n;
        List.find_map
          (fun s -> if s.site = site && s.at = n then Some s.action else None)
          !specs)

let calls site =
  Mutex.protect mu (fun () -> Option.value (Hashtbl.find_opt calls_tbl site) ~default:0)
