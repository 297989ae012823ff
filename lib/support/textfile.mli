(** The one file layer: everything inltune persists — JSONL journals
    (fitness cache, GA checkpoints, flip-oracle datasets, traces) and text
    artifacts (plans, GP trees, policies, JIR, bench records) — is read,
    written and appended here.  Every [Sys_error] comes back as
    [Error "<path>: <reason>"], so a bad path is one line at the caller. *)

(** The whole file. *)
val read : string -> (string, string) result

(** [fold_lines path ~init f] streams the lines (without their ['\n'])
    through [f acc lineno line], [lineno] counting from 1. *)
val fold_lines : string -> init:'a -> ('a -> int -> string -> 'a) -> ('a, string) result

(** Replace the file's contents, creating it if absent. *)
val write : string -> string -> (unit, string) result

(** An append channel on the file, created if absent.  If its last byte is
    not ['\n'] — a writer died mid-line — a ['\n'] is written first, so the
    fragment stays a line of its own and the next record starts a fresh
    one.  An empty or newline-terminated file gets nothing extra, and an
    empty one is not read.  The caller writes, flushes and closes. *)
val open_append : string -> (out_channel, string) result
