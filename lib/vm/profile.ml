(* Online profile data gathered by the adaptive optimization system:
   per-method invocation counts and timer-style samples, plus per-call-edge
   counters used to classify call sites as hot when a method is recompiled
   (the Fig. 4 heuristic path).

   Call-edge counters live in two representations with one combined view:
   - static call sites are interned at lowering time to a dense site id and
     counted in a flat int array (one unsafe increment per executed call);
   - virtual-dispatch edges, whose callee is only known at run time, stay in
     a hashtable keyed by (owner * nmethods + callee).
   [edge_count] sums both, so the reference interpreter (which routes every
   call through the hashtable) and the flat interpreter agree on every
   observable number. *)

module Metric = Inltune_obs.Metric

let dynamic_edges_counter = Metric.handle "vm.dynamic_edges"
let interned_sites_counter = Metric.handle "vm.interned_sites"

type t = {
  nmethods : int;
  invocations : int array;
  samples : int array;
  edges : (int, int) Hashtbl.t;  (* (owner * nmethods + callee) -> calls *)
  site_ids : (int, int) Hashtbl.t;  (* (owner * nmethods + callee) -> site id *)
  mutable site_keys : int array;    (* site id -> edge key *)
  mutable site_counts : int array;  (* site id -> calls *)
  mutable nsites : int;
  mutable total_calls : int;
}

let create nmethods =
  {
    nmethods;
    invocations = Array.make nmethods 0;
    samples = Array.make nmethods 0;
    edges = Hashtbl.create 256;
    site_ids = Hashtbl.create 64;
    site_keys = Array.make 64 0;
    site_counts = Array.make 64 0;
    nsites = 0;
    total_calls = 0;
  }

let nmethods t = t.nmethods
let total_calls t = t.total_calls
let interned_sites t = t.nsites

let record_invocation t mid = t.invocations.(mid) <- t.invocations.(mid) + 1

let record_call t ~site_owner ~callee =
  t.total_calls <- t.total_calls + 1;
  let key = (site_owner * t.nmethods) + callee in
  match Hashtbl.find_opt t.edges key with
  | Some n -> Hashtbl.replace t.edges key (n + 1)
  | None -> Hashtbl.add t.edges key 1

(* Same hashtable as [record_call]; the flat interpreter uses this entry
   point for virtual dispatch so fresh dynamic edges are observable. *)
let record_call_dynamic t ~site_owner ~callee =
  t.total_calls <- t.total_calls + 1;
  let key = (site_owner * t.nmethods) + callee in
  match Hashtbl.find_opt t.edges key with
  | Some n -> Hashtbl.replace t.edges key (n + 1)
  | None ->
    Metric.bump dynamic_edges_counter;
    Hashtbl.add t.edges key 1

let intern t ~site_owner ~callee =
  if callee < 0 || callee >= t.nmethods || site_owner < 0 || site_owner >= t.nmethods
  then invalid_arg "Profile.intern: method id out of range";
  let key = (site_owner * t.nmethods) + callee in
  match Hashtbl.find_opt t.site_ids key with
  | Some sid -> sid
  | None ->
    let sid = t.nsites in
    if sid = Array.length t.site_counts then begin
      let n' = 2 * sid in
      let keys = Array.make n' 0 and counts = Array.make n' 0 in
      Array.blit t.site_keys 0 keys 0 sid;
      Array.blit t.site_counts 0 counts 0 sid;
      t.site_keys <- keys;
      t.site_counts <- counts
    end;
    t.site_keys.(sid) <- key;
    t.site_counts.(sid) <- 0;
    t.nsites <- sid + 1;
    Hashtbl.add t.site_ids key sid;
    Metric.bump interned_sites_counter;
    sid

(* Hot-loop entry point: [sid] came from [intern], so it is in range. *)
let[@inline] record_site t sid =
  t.total_calls <- t.total_calls + 1;
  let c = t.site_counts in
  Array.unsafe_set c sid (Array.unsafe_get c sid + 1)

let record_sample t mid = t.samples.(mid) <- t.samples.(mid) + 1

let samples t mid = t.samples.(mid)
let invocations t mid = t.invocations.(mid)

let edge_count t ~site_owner ~callee =
  let key = (site_owner * t.nmethods) + callee in
  let dynamic = match Hashtbl.find_opt t.edges key with Some n -> n | None -> 0 in
  let static =
    match Hashtbl.find_opt t.site_ids key with
    | Some sid -> t.site_counts.(sid)
    | None -> 0
  in
  dynamic + static

(* A call site is hot when it carries at least [hot_edge_fraction] of all
   dynamic calls seen so far (with an absolute floor for early promotion). *)
let hot_site t ~fraction ~floor ~site_owner ~callee =
  let threshold = max floor (Float.to_int (fraction *. Float.of_int t.total_calls)) in
  edge_count t ~site_owner ~callee >= threshold

let hottest t n =
  let idx = Array.init (Array.length t.samples) (fun i -> i) in
  Array.sort (fun a b -> compare t.samples.(b) t.samples.(a)) idx;
  Array.to_list (Array.sub idx 0 (min n (Array.length idx)))
