(* Process-wide named counters and histograms.

   Counters are lock-free (one Atomic.t each) so hot paths — memo-cache hits
   during GA fitness evaluation, compiles across worker domains — can bump
   them unconditionally.  Histograms take a per-histogram mutex; they are
   meant for per-compile / per-method observations, not per-instruction.

   Values accumulate for the life of the process and are flushed into the
   trace as "counter" / "histogram" events when the sink is closed (see
   [Trace.shutdown]). *)

type counter = { cname : string; cell : int Atomic.t }

let hist_buckets = 32

type histogram = {
  hname : string;
  mu : Mutex.t;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  (* log2 buckets: bucket 0 holds values < 1, bucket i (i >= 1) holds
     values in [2^(i-1), 2^i); the last bucket is a catch-all. *)
  buckets : int array;
  (* Every observation, kept so snapshots can report exact percentiles.
     Histograms record per-compile / per-simulation values — thousands per
     run, not millions — so unbounded retention is cheap and honest. *)
  samples : float Inltune_support.Vec.t;
}

let registry_mu = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

(* Bumped by [reset_all], so a handle knows when its counter left the
   registry. *)
let generation = Atomic.make 0

let counter name =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { cname = name; cell = Atomic.make 0 } in
        Hashtbl.add counters name c;
        c)

let incr c = Atomic.incr c.cell
let add c n = ignore (Atomic.fetch_and_add c.cell n : int)
let value c = Atomic.get c.cell
let counter_name c = c.cname

(* A counter bound by name once, for hot paths: it resolves through the
   registry (and its lock) on first use and again only after a
   [reset_all], so a bump is two atomic loads and the increment.  Creating
   a handle registers nothing: a counter appears in snapshots only once
   something is counted, exactly as with [counter]. *)
type handle = { h_name : string; h_cur : (int * counter) Atomic.t }

let unresolved = (-1, { cname = ""; cell = Atomic.make 0 })
let handle name = { h_name = name; h_cur = Atomic.make unresolved }

let resolve h =
  let g, c = Atomic.get h.h_cur in
  let now = Atomic.get generation in
  if g = now then c
  else begin
    let c = counter h.h_name in
    Atomic.set h.h_cur (now, c);
    c
  end

let bump h = incr (resolve h)
let bump_by h n = add (resolve h) n

let histogram name =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h =
          {
            hname = name;
            mu = Mutex.create ();
            count = 0;
            sum = 0.0;
            min_v = infinity;
            max_v = neg_infinity;
            buckets = Array.make hist_buckets 0;
            samples = Inltune_support.Vec.create ();
          }
        in
        Hashtbl.add histograms name h;
        h)

let bucket_of v =
  if Float.is_finite v && v >= 1.0 then
    min (hist_buckets - 1) (1 + Float.to_int (Float.log2 v))
  else 0

let observe h v =
  Mutex.protect h.mu (fun () ->
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v;
      let b = bucket_of v in
      h.buckets.(b) <- h.buckets.(b) + 1;
      Inltune_support.Vec.push h.samples v)

type hist_snapshot = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : int array;
  (* Exact nearest-rank percentiles over every observation; [nan] when the
     histogram is empty. *)
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
}

let snapshot h =
  Mutex.protect h.mu (fun () ->
      let pct =
        if h.count = 0 then fun _ -> Float.nan
        else
          let xs = Inltune_support.Vec.to_array h.samples in
          Inltune_support.Stats.percentile xs
      in
      {
        hs_name = h.hname;
        hs_count = h.count;
        hs_sum = h.sum;
        hs_min = h.min_v;
        hs_max = h.max_v;
        hs_buckets = Array.copy h.buckets;
        hs_p50 = pct 50.0;
        hs_p90 = pct 90.0;
        hs_p99 = pct 99.0;
      })

let counters_snapshot () =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc) counters [])
  |> List.sort compare

let histograms_snapshot () =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.fold (fun _ h acc -> snapshot h :: acc) histograms [])
  |> List.sort (fun a b -> compare a.hs_name b.hs_name)

(* Tests only: forget every registered metric. *)
let reset_all () =
  Mutex.protect registry_mu (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset histograms;
      Atomic.incr generation)

(* [lib/support] sits below this library and cannot name the registry, so
   the pool's counters ("pool.tasks_stolen") arrive through a hook installed
   once, when this module is linked. *)
let () = Inltune_support.Pool.set_counter_hook (fun name n -> add (counter name) n)
