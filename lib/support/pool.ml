(* Persistent worker-domain pool with work-stealing.

   GA fitness evaluation is embarrassingly parallel: each work item touches
   only freshly allocated VM state.  Earlier revisions spawned [domains - 1]
   fresh domains on every batch; domain spawn/join is not free (minor heap
   setup, STW registration), and a tuner runs one batch per generation.  The
   pool below instead keeps one set of worker domains alive for the whole
   process and feeds them batches:

   - [submit] publishes a batch: an array of items, a results buffer and an
     atomic claim cursor.  Workers (and the submitter, inside [await]) claim
     one index at a time with [Atomic.fetch_and_add] — work-stealing in the
     flat-grid sense: nothing is pre-partitioned, so a worker that drew cheap
     items immediately steals the next one.  Fitness items are slow, so a
     claim per item costs nothing that matters.
   - [await] makes the calling domain participate until the batch drains,
     then blocks on a condition variable for stragglers.
   - A batch carries a participant cap so callers can bound parallelism
     (e.g. [--domains 1] debugging) below the pool's size.

   Every item's outcome — value or exception — is recorded independently, so
   one bad item cannot abort the batch; [map_result], the GA's fault-isolating
   primitive, is one such batch on a shared default pool. *)

(* 0 = no override; set once from the CLI's --domains flag. *)
let default_override = Atomic.make 0
let set_default_domains n = Atomic.set default_override (max 1 n)

let default_domains () =
  match Atomic.get default_override with
  | 0 -> max 1 (min 8 (Domain.recommended_domain_count ()))
  | n -> n

exception Cancelled

(* Observability bridge.  [lib/support] sits below [lib/obs], so the pool
   cannot name Metric counters directly; Inltune_obs installs a hook at
   module-initialization time and stolen-item accounting flows through it.
   Plain ref: written once at startup, read-only afterwards. *)
let counter_hook : (string -> int -> unit) ref = ref (fun _ _ -> ())
let set_counter_hook f = counter_hook := f

(* Monotonic-ish clock for deadline accounting.  There is no monotonic
   syscall binding in the dependency set, so centralize the next best thing:
   a process-wide high-water mark over [Unix.gettimeofday].  A backwards NTP
   step can then never produce a negative or shrunken elapsed time — the
   clock stalls instead of jumping back, which is the safe direction for a
   deadline check. *)
let now_mu = Mutex.create ()
let now_last = ref neg_infinity

let now () =
  Mutex.lock now_mu;
  let t = Unix.gettimeofday () in
  let t = if t > !now_last then t else !now_last in
  now_last := t;
  Mutex.unlock now_mu;
  t

let run_item f x = match f x with y -> Ok y | exception e -> Error e

(* One published unit of work.  Type-erased behind [b_run] so a single pool
   serves batches of any element type; the results buffer lives in the
   submitter's closure.

   Cancellation is cooperative: a running item is never interrupted
   (domains cannot be), but once [b_cancelled] trips, every index claimed
   from then on is recorded as [Error Cancelled] without executing.  The
   drain accounting (b_done) is unchanged, so [await] still unblocks exactly
   once all indices are accounted for. *)
type batch = {
  b_total : int;
  b_next : int Atomic.t;       (* next unclaimed index *)
  b_done : int Atomic.t;       (* items fully evaluated *)
  b_slots : int Atomic.t;      (* pool workers still allowed to join *)
  b_run : int -> unit;         (* evaluate item [i] into the results buffer *)
  b_kill : int -> unit;        (* record item [i] as cancelled, without running *)
  b_cancelled : unit -> bool;  (* polled at every claim (deadline, shutdown, ...) *)
  mutable b_finished : bool;   (* set under the pool lock; await sleeps on it *)
}

type t = {
  lock : Mutex.t;
  work_cv : Condition.t;       (* batch published or finished / shutdown *)
  done_cv : Condition.t;       (* some batch finished / workers joined *)
  mutable queue : batch list;  (* batches that may still have unclaimed work *)
  mutable stopping : bool;
  mutable joined : bool;       (* shutdown finished joining the workers *)
  mutable workers : unit Domain.t list;
  size : int;                  (* worker-domain count *)
}

type 'a task = { t_pool : t; t_batch : batch; t_results : 'a array }

(* Claim and evaluate indices until the batch has none left.  [stolen]
   marks execution by a pool worker rather than the submitting domain; those
   items are what the spawn-per-batch design could never overlap. *)
let exec_batch pool b ~stolen =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add b.b_next 1 in
    if i >= b.b_total then continue := false
    else begin
      let cancelled = b.b_cancelled () in
      if stolen && not cancelled then !counter_hook "pool.tasks_stolen" 1;
      (* Raw gettimeofday, not [now]: that clock takes a process-wide mutex
         and this runs once per item on every worker. *)
      let t0 = if stolen then Unix.gettimeofday () else 0.0 in
      if cancelled then begin
        !counter_hook "pool.tasks_cancelled" 1;
        b.b_kill i
      end
      else b.b_run i;
      if stolen then
        !counter_hook "pool.busy_ns"
          (Float.to_int ((Unix.gettimeofday () -. t0) *. 1e9));
      if Atomic.fetch_and_add b.b_done 1 + 1 = b.b_total then begin
        Mutex.lock pool.lock;
        b.b_finished <- true;
        pool.queue <- List.filter (fun b' -> b' != b) pool.queue;
        (* Wake the submitter, and the workers parked while this batch's
           last items ran: their starvation ends here. *)
        Condition.broadcast pool.done_cv;
        Condition.broadcast pool.work_cv;
        Mutex.unlock pool.lock
      end
    end
  done

let claimable b = Atomic.get b.b_next < b.b_total && Atomic.get b.b_slots > 0

let worker_main pool =
  Mutex.lock pool.lock;
  (* The batch this worker last joined, while it may be unfinished. *)
  let current = ref None in
  let continue = ref true in
  while !continue do
    match List.find_opt claimable pool.queue with
    | Some b ->
      (* Join the batch if a participant slot is left; losing the race just
         means another worker got there first — look again. *)
      if Atomic.fetch_and_add b.b_slots (-1) > 0 then begin
        current := Some b;
        Mutex.unlock pool.lock;
        exec_batch pool b ~stolen:true;
        Mutex.lock pool.lock
      end
    | None -> (
      (* Drain before exiting: stop only once no batch has claimable work. *)
      if pool.stopping then continue := false
      else
        match !current with
        | Some b when not b.b_finished ->
          (* Starvation inside a batch: nothing left to claim while other
             participants finish its last items.  The wait ends at the
             latest when the batch does (its finisher broadcasts work_cv).
             pool.idle_ns / (pool.idle_ns + pool.busy_ns) is the pool's
             starvation fraction; time parked between batches is not. *)
          let t0 = Unix.gettimeofday () in
          Condition.wait pool.work_cv pool.lock;
          !counter_hook "pool.idle_ns" (Float.to_int ((Unix.gettimeofday () -. t0) *. 1e9))
        | _ ->
          current := None;
          Condition.wait pool.work_cv pool.lock)
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

let submit pool ?max_workers ?(priority = false) ?(cancelled = fun () -> false) f input =
  let n = Array.length input in
  let results = Array.make n (Error Not_found) in
  let slots = match max_workers with Some w -> max 0 (w - 1) | None -> pool.size in
  let b =
    {
      b_total = n;
      b_next = Atomic.make 0;
      b_done = Atomic.make 0;
      b_slots = Atomic.make slots;
      b_run = (fun i -> results.(i) <- run_item f input.(i));
      b_kill = (fun i -> results.(i) <- Error Cancelled);
      b_cancelled = cancelled;
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

let map_result ?domains f input =
  let n = Array.length input in
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  if n = 0 then [||]
  else if domains = 1 || n = 1 then
    (* Strictly sequential on the calling domain: deterministic ordering for
       tests and fault-injection runs. *)
    Array.map (run_item f) input
  else await (submit (get_default ()) ~max_workers:domains f input)
