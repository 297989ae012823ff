let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. Float.of_int (Array.length xs)

(* Geometric mean, the paper's aggregate over a benchmark suite:
   Perf(S) = (prod Perf(s))^(1/|S|).  Computed in log space to avoid
   overflow on long suites. *)
let geomean xs =
  if Array.length xs = 0 then invalid_arg "Stats.geomean: empty";
  Array.iter (fun x -> if x <= 0.0 then invalid_arg "Stats.geomean: non-positive") xs;
  let s = Array.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs in
  Float.exp (s /. Float.of_int (Array.length xs))

let stddev xs =
  let m = mean xs in
  let n = Float.of_int (Array.length xs) in
  let var = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs /. n in
  Float.sqrt var

(* Exact nearest-rank percentile: the smallest element covering p percent of
   the sorted mass.  Nearest-rank (no interpolation) keeps the result an
   actual observed sample, which is what latency reporting wants. *)
let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if not (Float.is_finite p) || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p outside [0, 100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if p = 0.0 then sorted.(0)
  else begin
    let rank = Float.to_int (Float.ceil (p /. 100.0 *. Float.of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* Percentage reduction relative to a baseline: 0.83 -> 17.%. *)
let reduction_pct ratio = (1.0 -. ratio) *. 100.0

let ratio ~baseline x =
  if baseline <= 0.0 then invalid_arg "Stats.ratio: non-positive baseline";
  x /. baseline
