(* Content-keyed cache of optimizing-tier compile fronts.

   Under the Opt scenario an optimized method is a pure function of the
   program, the platform, the plan and the method's own inline-decision
   walk (see Fitcache's "w:" soundness argument, applied per method).  The
   GA's candidates share most of those walks, so most optimizing compiles of
   a search rebuild a front the process already produced.  This cache keeps
   each front — post-pipeline IR, pipeline statistics, spill figures — keyed
   by the caller's content key, so a hit skips the pipeline and register
   allocation and only runs the emit tail against the asking VM.

   Entries are stored as [Marshal] blobs, not live values: a blob is about
   a seventh of the live IR it encodes, and every hit decodes a private
   copy, so nothing downstream can mutate a cached entry.  Memory is bounded by a
   byte budget that counts blob bytes, key bytes and a fixed per-entry
   overhead; the least recently used entries go first.  Blobs never leave
   the process. *)

module Metric = Inltune_obs.Metric

(* A circular doubly-linked recency list threaded through the entries,
   anchored at a sentinel: [sentinel.next] is the most recently used entry,
   [sentinel.prev] the eviction victim. *)
type node = {
  key : string;
  blob : string;
  mutable prev : node;
  mutable next : node;
}

type t = {
  budget : int;
  mu : Mutex.t;
  table : (string, node) Hashtbl.t;
  sentinel : node;
  mutable bytes : int;
}

let budget_bytes = 1 lsl 20

(* Node record, hash-table bucket and the two string headers, rounded up. *)
let entry_overhead = 96

let create ~budget =
  if budget <= 0 then invalid_arg "Codecache.create: budget must be positive";
  let rec sentinel = { key = ""; blob = ""; prev = sentinel; next = sentinel } in
  { budget; mu = Mutex.create (); table = Hashtbl.create 256; sentinel; bytes = 0 }

let global = create ~budget:budget_bytes

let entry_bytes n = String.length n.key + String.length n.blob + entry_overhead

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.prev <- t.sentinel;
  n.next <- t.sentinel.next;
  t.sentinel.next.prev <- n;
  t.sentinel.next <- n

let locked t f = Mutex.protect t.mu f

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.sentinel.prev <- t.sentinel;
      t.sentinel.next <- t.sentinel;
      t.bytes <- 0)

let bytes t = locked t (fun () -> t.bytes)
let length t = locked t (fun () -> Hashtbl.length t.table)
let mem t key = locked t (fun () -> Hashtbl.mem t.table key)

let hits = Metric.handle "vm.code_cache.hits"
let misses = Metric.handle "vm.code_cache.misses"
let evictions = Metric.handle "vm.code_cache.evictions"

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None -> None
      | Some n ->
        unlink n;
        push_front t n;
        Some n.blob)

(* Two domains can miss one key at once and both compile; the first store
   wins.  An entry larger than the whole budget is never stored. *)
let add t key blob =
  let evicted =
    locked t (fun () ->
        let rec node = { key; blob; prev = node; next = node } in
        let size = entry_bytes node in
        if Hashtbl.mem t.table key || size > t.budget then 0
        else begin
          Hashtbl.add t.table key node;
          push_front t node;
          t.bytes <- t.bytes + size;
          let evicted = ref 0 in
          while t.bytes > t.budget do
            let victim = t.sentinel.prev in
            unlink victim;
            Hashtbl.remove t.table victim.key;
            t.bytes <- t.bytes - entry_bytes victim;
            incr evicted
          done;
          !evicted
        end)
  in
  if evicted > 0 then Metric.bump_by evictions evicted

let find_or_compile t key compile =
  match find t key with
  | Some blob ->
    Metric.bump hits;
    (Marshal.from_string blob 0 : Compile.opt_front)
  | None ->
    Metric.bump misses;
    let front : Compile.opt_front = compile () in
    add t key (Marshal.to_string front []);
    front
