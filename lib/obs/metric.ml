(* Process-wide named counters and histograms.

   Counters are lock-free (one Atomic.t each) so hot paths — memo-cache hits
   during GA fitness evaluation, compiles across worker domains — can bump
   them unconditionally.  Histograms take a per-histogram mutex; they are
   meant for per-compile / per-method observations, not per-instruction.

   Values accumulate for the life of the process and are flushed into the
   trace as "counter" / "histogram" events when the sink is closed (see
   [Trace.shutdown]). *)

type counter = { cname : string; cell : int Atomic.t }

(* Count, sum, min and max are exact.  Beyond them a histogram keeps one
   count per bin, where a bin is a value's sign, exponent and top 7
   mantissa bits: memory grows with the spread of the values (128 bins per
   octave), never with their number, so a daemon can observe one latency
   per request for its whole life. *)
type histogram = {
  hname : string;
  mu : Mutex.t;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  bins : (int, int) Hashtbl.t;
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

let unregistered_histogram name =
  {
    hname = name;
    mu = Mutex.create ();
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
    bins = Hashtbl.create 16;
  }

let histogram name =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h = unregistered_histogram name in
        Hashtbl.add histograms name h;
        h)

(* The low 45 bits of a double are all but the top 7 of its 52 mantissa
   bits.  A bin's floor is its values truncated toward zero to 8
   significant bits, and truncation keeps the values' order, signs and
   zeros included. *)
let bin_of v = Int64.to_int (Int64.shift_right (Int64.bits_of_float v) 45)
let bin_floor b = Int64.float_of_bits (Int64.shift_left (Int64.of_int b) 45)

let observe h v =
  let b = bin_of v in
  Mutex.protect h.mu (fun () ->
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v;
      Hashtbl.replace h.bins b (1 + Option.value (Hashtbl.find_opt h.bins b) ~default:0))

type hist_snapshot = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_mean : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
}

let snapshot h =
  Mutex.protect h.mu (fun () ->
      let bins =
        Hashtbl.fold (fun b n acc -> (bin_floor b, n) :: acc) h.bins [] |> List.sort compare
      in
      (* Nearest rank, as [Stats.percentile]: the floor of the bin holding
         the ceil(p% n)-th smallest value, clamped into [min, max]. *)
      let pct p =
        let rank = Float.to_int (Float.ceil (p /. 100.0 *. Float.of_int h.count)) in
        let rec walk seen = function
          | [] -> Float.nan
          | (lo, n) :: rest ->
            if seen + n >= rank then Float.min h.max_v (Float.max h.min_v lo)
            else walk (seen + n) rest
        in
        walk 0 bins
      in
      {
        hs_name = h.hname;
        hs_count = h.count;
        hs_sum = h.sum;
        hs_min = h.min_v;
        hs_max = h.max_v;
        hs_mean = h.sum /. Float.of_int h.count;
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
