(* Hierarchical wall-time profiler.  See prof.mli for the contract.

   Per-domain state is one DLS string ref holding the current span path;
   nodes live in a global path-keyed table guarded by a single mutex that is
   taken once per span *exit* (not per clock read), so contention is bounded
   by span rate, which is per-compile / per-simulation. *)

module Table = Inltune_support.Table

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

(* Current span path of the calling domain; "" at top level.  A worker
   domain starts fresh, so spans recorded inside pool tasks root at the
   task's outermost span regardless of which domain ran it — that is what
   keeps the merged tree shape independent of the domain count. *)
let path_key = Domain.DLS.new_key (fun () -> ref "")

(* A node's calls are its histogram's count and its total is the sum, in
   microseconds. *)
type node = { path : string; label : string; hist : Metric.histogram }

let mu = Mutex.create ()
let nodes : (string, node) Hashtbl.t = Hashtbl.create 32

let record path label dt =
  Mutex.protect mu (fun () ->
      let n =
        match Hashtbl.find_opt nodes path with
        | Some n -> n
        | None ->
          let n = { path; label; hist = Metric.unregistered_histogram path } in
          Hashtbl.add nodes path n;
          n
      in
      Metric.observe n.hist (dt *. 1e6))

let span ?on_time label f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let cur = Domain.DLS.get path_key in
    let parent = !cur in
    let path = if parent = "" then label else parent ^ ";" ^ label in
    cur := path;
    let t0 = Unix.gettimeofday () in
    match f () with
    | r ->
      let dt = Unix.gettimeofday () -. t0 in
      cur := parent;
      record path label dt;
      (match on_time with None -> () | Some g -> g dt);
      r
    | exception e ->
      cur := parent;
      raise e
  end

type node_snapshot = {
  n_path : string;
  n_label : string;
  n_depth : int;
  n_calls : int;
  n_total_us : float;
  n_self_us : float;
  n_p50_us : float;
  n_p90_us : float;
  n_p99_us : float;
  n_max_us : float;
}

let depth_of path =
  String.fold_left (fun d c -> if c = ';' then d + 1 else d) 0 path

let parent_of path =
  match String.rindex_opt path ';' with
  | None -> None
  | Some i -> Some (String.sub path 0 i)

let snapshot () =
  (* Copy under the mutex so concurrent span exits can't tear a node. *)
  let raw =
    Mutex.protect mu (fun () ->
        Hashtbl.fold (fun _ n acc -> (n.path, n.label, Metric.snapshot n.hist) :: acc) nodes [])
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  (* Sum of direct-children cumulative time per parent path, for self time. *)
  let child_total : (string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (path, _, (h : Metric.hist_snapshot)) ->
      match parent_of path with
      | None -> ()
      | Some p ->
        let cur = Option.value (Hashtbl.find_opt child_total p) ~default:0.0 in
        Hashtbl.replace child_total p (cur +. h.hs_sum))
    raw;
  List.map
    (fun (path, label, (h : Metric.hist_snapshot)) ->
      let kids = Option.value (Hashtbl.find_opt child_total path) ~default:0.0 in
      {
        n_path = path;
        n_label = label;
        n_depth = depth_of path;
        n_calls = h.hs_count;
        n_total_us = h.hs_sum;
        n_self_us = Float.max 0.0 (h.hs_sum -. kids);
        n_p50_us = h.hs_p50;
        n_p90_us = h.hs_p90;
        n_p99_us = h.hs_p99;
        n_max_us = h.hs_max;
      })
    raw

let folded nodes =
  List.filter_map
    (fun n ->
      let us = Float.round n.n_self_us in
      if Float.is_finite us && us > 0.0 then
        Some (Printf.sprintf "%s %d" n.n_path (Float.to_int us))
      else None)
    nodes

let table nodes =
  let t =
    Table.create ~title:"profile (wall time, self vs. cumulative)"
      ~header:[| "span"; "calls"; "total ms"; "self ms"; "p50 us"; "p90 us"; "p99 us"; "max us" |]
      ~aligns:Table.[| Left; Right; Right; Right; Right; Right; Right; Right |]
  in
  let ms v = Table.fmt_finite (v /. 1e3) and us v = Table.fmt_finite ~digits:1 v in
  List.iter
    (fun n ->
      Table.add_row t
        [|
          String.make (2 * n.n_depth) ' ' ^ n.n_label;
          string_of_int n.n_calls;
          ms n.n_total_us;
          ms n.n_self_us;
          us n.n_p50_us;
          us n.n_p90_us;
          us n.n_p99_us;
          us n.n_max_us;
        |])
    nodes;
  t

let report oc =
  match snapshot () with
  | [] -> output_string oc "[prof] no spans recorded\n"
  | nodes ->
    output_string oc (Table.render (table nodes));
    flush oc

let exit_hook = ref false

let report_at_exit () =
  if not !exit_hook then begin
    exit_hook := true;
    at_exit (fun () -> report stderr)
  end

let reset () = Mutex.protect mu (fun () -> Hashtbl.reset nodes)

let init_from_env () =
  match Sys.getenv_opt "INLTUNE_PROFILE" with
  | None | Some "" | Some "0" -> ()
  | Some _ ->
    enable ();
    report_at_exit ()

(* Flush nodes into a closing trace as "prof.node" events so trace-summary
   can rebuild the profile table and folded stacks offline. *)
let () =
  Trace.add_flush_hook (fun () ->
      List.iter
        (fun n ->
          Trace.emit "prof.node"
            ~fields:
              [
                ("path", Event.Str n.n_path);
                ("label", Event.Str n.n_label);
                ("depth", Event.Int n.n_depth);
                ("calls", Event.Int n.n_calls);
                ("total_us", Event.Float n.n_total_us);
                ("self_us", Event.Float n.n_self_us);
                ("p50_us", Event.Float n.n_p50_us);
                ("p90_us", Event.Float n.n_p90_us);
                ("p99_us", Event.Float n.n_p99_us);
                ("max_us", Event.Float n.n_max_us);
              ])
        (snapshot ()))
