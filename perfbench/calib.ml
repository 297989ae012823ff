(* Host-speed calibration for the end-to-end times.

   On a shared host the speed of branchy, cache-heavy code drifts by up to
   ±25% over seconds to minutes as neighbours load the machine, and a median
   over one 45-second run does not average that out.  So every timed
   set-up or search is bracketed by samples of a fixed calibration kernel
   written here, which calls nothing in the library: an interpreter loop
   over a packed register-machine program (branches, L1/L2 loads and
   stores) and lookups in a 100k-node binary search tree kept outside the
   OCaml heap (pointer chasing through a few megabytes).  A time [raw] measured between kernel
   samples [before] and [after] is reported as
   [raw *. reference_s /. ((before +. after) /. 2.)]: seconds on a host
   where one kernel sample takes [reference_s].

   The kernel allocates nothing on the OCaml heap, so no collection runs
   during it: its time does not depend on what the program under test
   keeps on the heap, and the heap the program sees is the one it would see
   without the kernel. *)

module B = Bigarray.Array1

let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* --- interpreter loop ------------------------------------------------------------ *)

let code_len = 256

(* [op; a; b; c] per instruction; the last one halts. *)
let code =
  let s = ref 99 in
  Array.init (4 * code_len) (fun k ->
      if k mod 4 = 0 then s := lcg !s;
      match k mod 4 with
      | 0 -> if k / 4 = code_len - 1 then 5 else !s mod 5
      | f -> (!s lsr (4 * f - 1)) land 15)

let data = Array.init 32768 (fun i -> i * 7)

let interp steps =
  let r = Array.make 16 1 in
  let pc = ref 0 in
  for _ = 1 to steps do
    let o = 4 * !pc in
    let a = code.(o + 1) and b = code.(o + 2) and c = code.(o + 3) in
    (match code.(o) with
     | 0 -> r.(a) <- r.(b) + r.(c)
     | 1 -> r.(a) <- r.(b) lxor (r.(c) lsl 1)
     | 2 -> r.(a) <- data.((r.(b) + c) land 32767)
     | 3 -> data.((r.(b) + a) land 32767) <- r.(c)
     | 4 -> if r.(b) land 1 = 0 then pc := (!pc + c) land (code_len - 1)
     | _ -> pc := -1);
    pc := !pc + 1
  done;
  r.(0)

(* --- off-heap search tree ---------------------------------------------------------- *)

(* Node [i] is the [i]-th key inserted: key, left child, right child (-1 =
   none).  Random keys make a random tree whose nodes sit far from their
   parents. *)
let tree_nodes = 100_000

let tree =
  let t = B.create Bigarray.int Bigarray.c_layout (3 * tree_nodes) in
  B.fill t (-1);
  let s = ref 3 in
  for i = 0 to tree_nodes - 1 do
    s := lcg !s;
    let k = !s land 0xFFFFFF in
    t.{3 * i} <- k;
    if i > 0 then begin
      let rec place n =
        let slot = if k < t.{3 * n} then (3 * n) + 1 else (3 * n) + 2 in
        if t.{slot} < 0 then t.{slot} <- i else place t.{slot}
      in
      place 0
    end
  done;
  t

let lookups n =
  let s = ref 11 and found = ref 0 in
  for _ = 1 to n do
    s := lcg !s;
    let k = !s land 0xFFFFFF in
    let rec walk n =
      if n >= 0 then begin
        let nk = tree.{3 * n} in
        if k = nk then incr found else walk tree.{(3 * n) + if k < nk then 1 else 2}
      end
    in
    walk 0
  done;
  !found

(* --- samples ------------------------------------------------------------------- *)

(* One kernel sample's median time on the 2-vCPU development host. *)
let reference_s = 0.33

(* Every sample taken, newest first. *)
let samples = ref []

(* Wall seconds of one kernel run. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (interp 30_000_000 + lookups 400_000));
  let dt = Unix.gettimeofday () -. t0 in
  samples := dt :: !samples;
  dt

let normalise ~before ~after raw = raw *. reference_s /. ((before +. after) /. 2.0)

(* [timed ~groups ~per_group f]: [groups] groups of [per_group] calls of [f],
   a kernel sample before the first group and after every group.  Returns
   each call's result, raw wall time and normalised time. *)
let timed ~groups ~per_group f =
  let before = ref (sample ()) in
  List.concat
    (List.init groups (fun _ ->
         let calls =
           List.init per_group (fun _ ->
               let t0 = Unix.gettimeofday () in
               let r = f () in
               (r, Unix.gettimeofday () -. t0))
         in
         let after = sample () in
         let b = !before in
         before := after;
         List.map (fun (r, dt) -> (r, dt, normalise ~before:b ~after dt)) calls))
