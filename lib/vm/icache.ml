(* Direct-mapped instruction-cache simulator.

   The interpreter touches the cache once per simulated instruction with the
   instruction's code address; a tag mismatch is a miss and costs the
   platform's miss penalty.  This is the mechanism that makes over-aggressive
   inlining *hurt* running time: bloated hot code stops fitting and the depth
   sweeps of Fig. 2 turn non-monotonic.

   [first] records, per index, the line of the index's first fill.  Together
   with the final tags it determines what a repeat of the same address trace
   would miss ([repeat_misses]), so a runner can derive later identical
   passes instead of replaying them. *)

type t = {
  tags : int array;     (* -1 = invalid *)
  first : int array;    (* line of each index's first fill; -1 = never filled *)
  line_bits : int;
  index_mask : int;
  mutable accesses : int;
  mutable misses : int;
}

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let create ~bytes ~line_bytes =
  if bytes <= 0 || line_bytes <= 0 then invalid_arg "Icache.create";
  if line_bytes land (line_bytes - 1) <> 0 then invalid_arg "Icache.create: line size not a power of two";
  let nlines = max 1 (bytes / line_bytes) in
  if nlines land (nlines - 1) <> 0 then invalid_arg "Icache.create: line count not a power of two";
  {
    tags = Array.make nlines (-1);
    first = Array.make nlines (-1);
    line_bits = log2 line_bytes;
    index_mask = nlines - 1;
    accesses = 0;
    misses = 0;
  }

(* Returns true on a miss (and installs the line). *)
let access t addr =
  t.accesses <- t.accesses + 1;
  let line = addr lsr t.line_bits in
  let idx = line land t.index_mask in
  let tag = t.tags.(idx) in
  if tag = line then false
  else begin
    if tag < 0 then t.first.(idx) <- line;
    t.tags.(idx) <- line;
    t.misses <- t.misses + 1;
    true
  end

let miss_rate t =
  if t.accesses = 0 then 0.0 else Float.of_int t.misses /. Float.of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0

let accesses t = t.accesses
let misses t = t.misses

(* Per index, a pass over a trace that touches lines L1..Lk there misses on
   every change of line.  From a cold cache that is 1 + changes(L); from the
   state the pass itself left (Lk) it is [L1 <> Lk] + changes(L), and the
   pass ends in that same state again.  Untouched indices keep their tags
   and miss on neither pass. *)
let repeat_misses t =
  let m = ref t.misses in
  Array.iteri
    (fun idx line -> if line >= 0 && line = t.tags.(idx) then decr m)
    t.first;
  !m
