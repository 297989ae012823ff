(* Persistent worker-domain pool with chunked work-stealing.

   GA fitness evaluation is embarrassingly parallel: each work item touches
   only freshly allocated VM state.  Earlier revisions spawned [domains - 1]
   fresh domains on every [map] call; domain spawn/join is not free (minor
   heap setup, STW registration), and a tuner calls [map] once per
   generation.  The pool below instead keeps one set of worker domains alive
   for the whole process and feeds them batches:

   - [submit] publishes a batch: an array of items, a results buffer and an
     atomic claim cursor.  Workers (and the submitter, inside [await]) claim
     chunks of indices with [Atomic.fetch_and_add] — work-stealing in the
     flat-grid sense: nothing is pre-partitioned, so a worker that drew cheap
     items immediately steals the next chunk of someone else's share.
   - [await] makes the calling domain participate until the batch drains,
     then blocks on a condition variable for stragglers.
   - A batch carries a participant cap so callers can bound parallelism
     (e.g. [--domains 1] debugging) below the pool's size.

   [map_result] is the fault-isolating primitive: every item is evaluated and
   its outcome — value or exception — is recorded independently, so one bad
   item cannot abort the batch.  The legacy [map]/[mapi] are compatibility
   wrappers over submit/await on a shared default pool and re-raise exactly
   one [Worker_failure], carrying the lowest failing index. *)

(* 0 = no override; set once from the CLI's --domains flag. *)
let default_override = Atomic.make 0
let set_default_domains n = Atomic.set default_override (max 1 n)

let default_domains () =
  match Atomic.get default_override with
  | 0 -> max 1 (min 8 (Domain.recommended_domain_count ()))
  | n -> n

exception Worker_failure of int * exn

exception Deadline_exceeded of float

exception Cancelled

(* Observability bridge.  [lib/support] sits below [lib/obs], so the pool
   cannot name Metric counters directly; Inltune_obs installs a hook at
   module-initialization time and stolen-chunk accounting flows through it.
   Plain ref: written once at startup, read-only afterwards. *)
let counter_hook : (string -> int -> unit) ref = ref (fun _ _ -> ())
let set_counter_hook f = counter_hook := f

(* Monotonic-ish clock for deadline accounting.  There is no monotonic
   syscall binding in the dependency set, so centralize the next best thing:
   a process-wide high-water mark over [Unix.gettimeofday].  A backwards NTP
   step can then never produce a negative or shrunken elapsed time — the
   clock stalls instead of jumping back, which is the safe direction for a
   [Deadline_exceeded] check. *)
let now_mu = Mutex.create ()
let now_last = ref neg_infinity

let now () =
  Mutex.lock now_mu;
  let t = Unix.gettimeofday () in
  let t = if t > !now_last then t else !now_last in
  now_last := t;
  Mutex.unlock now_mu;
  t

let run_item f x deadline_s =
  match deadline_s with
  | None -> ( match f x with y -> Ok y | exception e -> Error e)
  | Some limit -> (
    (* Domains cannot be interrupted, so the deadline is cooperative: the item
       runs to completion (the VM's own fuel budget bounds it) and an overrun
       result is discarded as a failure rather than returned late. *)
    let t0 = now () in
    match f x with
    | y ->
      let dt = now () -. t0 in
      if dt > limit then Error (Deadline_exceeded dt) else Ok y
    | exception e -> Error e)

(* One published unit of work.  Type-erased behind [b_run] so a single pool
   serves batches of any element type; the results buffer lives in the
   submitter's closure. *)
type batch = {
  b_total : int;
  b_chunk : int;               (* indices claimed per fetch_and_add *)
  b_next : int Atomic.t;       (* next unclaimed index *)
  b_done : int Atomic.t;       (* items fully evaluated *)
  b_slots : int Atomic.t;      (* pool workers still allowed to join *)
  b_run : int -> unit;         (* evaluate item [i] into the results buffer *)
  b_kill : int -> unit;        (* record item [i] as cancelled, without running *)
  b_cancelled : bool Atomic.t; (* imperative cancel flag ([cancel]) *)
  b_cancel_hook : unit -> bool; (* cooperative cancel (deadline, shutdown, ...) *)
  mutable b_finished : bool;   (* set under the pool lock; await sleeps on it *)
}

(* Cancellation is cooperative at chunk granularity: a running item is never
   interrupted (domains cannot be), but once the flag or hook trips, every
   chunk claimed from then on is recorded as [Error Cancelled] without
   executing.  The drain accounting (b_done) is unchanged, so [await] still
   unblocks exactly once all indices are accounted for. *)
let batch_cancelled b = Atomic.get b.b_cancelled || b.b_cancel_hook ()

type t = {
  lock : Mutex.t;
  work_cv : Condition.t;       (* new batch published / shutdown *)
  done_cv : Condition.t;       (* some batch finished / workers joined *)
  mutable queue : batch list;  (* batches that may still have unclaimed work *)
  mutable stopping : bool;
  mutable joined : bool;       (* shutdown finished joining the workers *)
  mutable workers : unit Domain.t list;
  size : int;                  (* worker-domain count *)
}

type 'a task = { t_pool : t; t_batch : batch; t_results : 'a array }

(* Claim and evaluate chunks until the batch has none left.  [stolen] marks
   execution by a pool worker rather than the submitting domain; those chunks
   are what the spawn-per-map design could never overlap. *)
let exec_batch pool b ~stolen =
  let continue = ref true in
  while !continue do
    let lo = Atomic.fetch_and_add b.b_next b.b_chunk in
    if lo >= b.b_total then continue := false
    else begin
      let hi = min b.b_total (lo + b.b_chunk) in
      let cancelled = batch_cancelled b in
      if stolen && not cancelled then !counter_hook "pool.tasks_stolen" (hi - lo);
      (* Raw gettimeofday, not [now]: that clock takes a process-wide mutex
         and this runs once per chunk on every worker. *)
      let t0 = if stolen then Unix.gettimeofday () else 0.0 in
      if cancelled then begin
        !counter_hook "pool.tasks_cancelled" (hi - lo);
        for i = lo to hi - 1 do
          b.b_kill i
        done
      end
      else
        for i = lo to hi - 1 do
          b.b_run i
        done;
      if stolen then
        !counter_hook "pool.busy_ns"
          (Float.to_int ((Unix.gettimeofday () -. t0) *. 1e9));
      let finished = hi - lo in
      if Atomic.fetch_and_add b.b_done finished + finished = b.b_total then begin
        Mutex.lock pool.lock;
        b.b_finished <- true;
        pool.queue <- List.filter (fun b' -> b' != b) pool.queue;
        Condition.broadcast pool.done_cv;
        Mutex.unlock pool.lock
      end
    end
  done

let claimable b = Atomic.get b.b_next < b.b_total && Atomic.get b.b_slots > 0

let worker_main pool =
  Mutex.lock pool.lock;
  let continue = ref true in
  while !continue do
    match List.find_opt claimable pool.queue with
    | Some b ->
      (* Join the batch if a participant slot is left; losing the race just
         means another worker got there first — look again. *)
      if Atomic.fetch_and_add b.b_slots (-1) > 0 then begin
        Mutex.unlock pool.lock;
        exec_batch pool b ~stolen:true;
        Mutex.lock pool.lock
      end
    | None ->
      (* Drain before exiting: stop only once no batch has claimable work. *)
      if pool.stopping then continue := false
      else begin
        (* Starvation accounting: time spent parked waiting for work.
           pool.idle_ns / (pool.idle_ns + pool.busy_ns) is the pool's
           starvation fraction over the run. *)
        let t0 = Unix.gettimeofday () in
        Condition.wait pool.work_cv pool.lock;
        !counter_hook "pool.idle_ns" (Float.to_int ((Unix.gettimeofday () -. t0) *. 1e9))
      end
  done;
  Mutex.unlock pool.lock

let create ?domains () =
  let size = match domains with Some d -> max 1 d | None -> default_domains () in
  let pool =
    {
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      queue = [];
      stopping = false;
      joined = false;
      workers = [];
      size;
    }
  in
  pool.workers <- List.init size (fun _ -> Domain.spawn (fun () -> worker_main pool));
  pool

(* Idempotent and safe from any number of domains: exactly one caller joins
   the workers; every other concurrent or later caller blocks until that
   join has completed, so "shutdown returned" always means "no worker domain
   is still running".  (Calling it from a pool worker itself would deadlock —
   workers never shut their own pool down.) *)
let shutdown pool =
  Mutex.lock pool.lock;
  if pool.stopping then begin
    while not pool.joined do
      Condition.wait pool.done_cv pool.lock
    done;
    Mutex.unlock pool.lock
  end
  else begin
    pool.stopping <- true;
    Condition.broadcast pool.work_cv;
    let ws = pool.workers in
    pool.workers <- [];
    Mutex.unlock pool.lock;
    List.iter Domain.join ws;
    Mutex.lock pool.lock;
    pool.joined <- true;
    Condition.broadcast pool.done_cv;
    Mutex.unlock pool.lock
  end

let submit pool ?chunk ?max_workers ?deadline_s ?(priority = false)
    ?(cancelled = fun () -> false) f input =
  let n = Array.length input in
  let results = Array.make n (Error Not_found) in
  let chunk =
    match chunk with
    | Some c -> max 1 c
    (* Adaptive default: large batches amortize the claim cas, small batches
       degrade to one-item chunks for load balance (fitness items are slow). *)
    | None -> max 1 (n / (8 * (pool.size + 1)))
  in
  let slots = match max_workers with Some w -> max 0 (w - 1) | None -> pool.size in
  let b =
    {
      b_total = n;
      b_chunk = chunk;
      b_next = Atomic.make 0;
      b_done = Atomic.make 0;
      b_slots = Atomic.make slots;
      b_run = (fun i -> results.(i) <- run_item f input.(i) deadline_s);
      b_kill = (fun i -> results.(i) <- Error Cancelled);
      b_cancelled = Atomic.make false;
      b_cancel_hook = cancelled;
      b_finished = (n = 0);
    }
  in
  if n > 0 && slots > 0 then begin
    Mutex.lock pool.lock;
    if not pool.stopping then begin
      (* Priority batches go to the head of the queue so idle workers pick
         them up before older bulk work; nothing running is preempted. *)
      pool.queue <- (if priority then b :: pool.queue else pool.queue @ [ b ]);
      Condition.broadcast pool.work_cv
    end;
    Mutex.unlock pool.lock
  end;
  { t_pool = pool; t_batch = b; t_results = results }

let workers pool = pool.size

let cancel task = Atomic.set task.t_batch.b_cancelled true

let await task =
  let pool = task.t_pool and b = task.t_batch in
  (* The submitter is always a participant (not counted against b_slots), so
     even a stopped or fully busy pool makes progress. *)
  exec_batch pool b ~stolen:false;
  Mutex.lock pool.lock;
  while not b.b_finished do
    Condition.wait pool.done_cv pool.lock
  done;
  Mutex.unlock pool.lock;
  task.t_results

(* --- shared default pool ------------------------------------------------ *)

let default_mu = Mutex.create ()
let default_pool = ref None

let get_default () =
  Mutex.lock default_mu;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      (* The submitter takes part in every batch it awaits, so
         [default_domains ()] participants need one worker fewer. *)
      let p = create ~domains:(max 1 (default_domains () - 1)) () in
      default_pool := Some p;
      at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock default_mu;
  p

(* --- compatibility wrappers -------------------------------------------- *)

let map_result ?domains ?deadline_s f input =
  let n = Array.length input in
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  if n = 0 then [||]
  else if domains = 1 || n = 1 then
    (* Strictly sequential on the calling domain: deterministic ordering for
       tests and fault-injection runs. *)
    Array.map (fun x -> run_item f x deadline_s) input
  else await (submit (get_default ()) ~chunk:1 ~max_workers:domains ?deadline_s f input)

let reraise_first results =
  let fail = ref None in
  Array.iteri
    (fun i r ->
      match (r, !fail) with Error e, None -> fail := Some (i, e) | _ -> ())
    results;
  match !fail with
  | Some (i, e) -> raise (Worker_failure (i, e))
  | None -> Array.map (function Ok y -> y | Error _ -> assert false) results

let map ?domains f input = reraise_first (map_result ?domains f input)

let mapi ?domains f input =
  let indexed = Array.mapi (fun i x -> (i, x)) input in
  map ?domains (fun (i, x) -> f i x) indexed
