open Inltune_opt
open Inltune_vm
module W = Inltune_workloads
module Core = Inltune_core
module Objective = Inltune_core.Objective
module Vec = Inltune_support.Vec
module Json = Inltune_obs.Json
module Metric = Inltune_obs.Metric
module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event
module Sandbox = Inltune_resilience.Sandbox

(* Flip-oracle dataset generation.

   The VM is deterministic, so "the k-th policy decision of the whole run"
   is a stable identity for a call site: the enumerate pass records features
   and the base decision per ordinal, and each labeling pass re-runs the
   benchmark with exactly one ordinal's verdict inverted.  Whichever choice
   yields the lower metric (paper Section 3.1 goals) becomes the label.
   Flipping decision k can change every later ordinal's context (the caller
   has different code); the oracle is defined as "flip k, let the rest
   re-decide under the base policy", which is the standard one-step
   counterfactual. *)

type example = {
  x_bench : string;
  x_ordinal : int;
  x_features : float array;
  x_base : bool;
  x_label : bool;
  x_benefit : float;
}

(* --- JSONL serialization ------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf c
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_line e =
  let feats =
    String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") e.x_features))
  in
  Printf.sprintf
    "{\"bench\":\"%s\",\"ordinal\":%d,\"features\":[%s],\"base\":%b,\"label\":%b,\"benefit\":%.17g}"
    (escape e.x_bench) e.x_ordinal feats e.x_base e.x_label e.x_benefit

let of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> (
    let str k = Option.bind (Json.member k j) Json.to_string in
    let int_f k = Option.bind (Json.member k j) Json.to_int in
    let bool_f k = Option.bind (Json.member k j) Json.to_bool in
    let num k = Option.bind (Json.member k j) Json.to_float in
    let feats =
      match Json.member "features" j with
      | Some (Json.List l) ->
        let ok = List.for_all (fun v -> Json.to_float v <> None) l in
        if ok then Some (Array.of_list (List.filter_map Json.to_float l)) else None
      | _ -> None
    in
    match (str "bench", int_f "ordinal", feats, bool_f "base", bool_f "label", num "benefit") with
    | Some b, Some o, Some f, Some base, Some label, Some benefit ->
      Ok { x_bench = b; x_ordinal = o; x_features = f; x_base = base; x_label = label; x_benefit = benefit }
    | _ -> Error "missing or ill-typed example field")

let load path =
  let ic = open_in path in
  let bad = ref 0 in
  let out = Vec.create () in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match of_line line with
         | Ok e -> Vec.push out e
         | Error _ -> incr bad
     done
   with End_of_file -> ());
  close_in ic;
  (Array.to_list (Vec.to_array out), !bad)

let save path examples =
  let oc = open_out path in
  List.iter (fun e -> output_string oc (to_line e ^ "\n")) examples;
  close_out oc

let to_training examples =
  Array.of_list (List.map (fun e -> (e.x_features, e.x_label)) examples)

(* --- generation --------------------------------------------------------- *)

type config = {
  scenario : Machine.scenario;
  platform : Platform.t;
  heuristic : Heuristic.t;
  goal : Objective.goal;
  iterations : int;
  max_sites : int;
  max_retries : int;
}

let default_config =
  {
    scenario = Machine.Opt;
    platform = Platform.x86;
    heuristic = Heuristic.default;
    goal = Objective.Total;
    iterations = 3;
    max_sites = 20;
    max_retries = 1;
  }

(* The oracle's scalar, per Section 3.1; Balance normalizes with the default
   heuristic's compile/run ratio for the benchmark (memoized baseline). *)
let metric cfg bm (t : Core.Measure.times) =
  match cfg.goal with
  | Objective.Running -> t.Core.Measure.running
  | Objective.Total -> t.Core.Measure.total
  | Objective.Balance ->
    let d =
      Core.Measure.run_default ~iterations:cfg.iterations ~scenario:cfg.scenario
        ~platform:cfg.platform bm
    in
    let factor = d.Core.Measure.total /. d.Core.Measure.running in
    (factor *. t.Core.Measure.running) +. t.Core.Measure.total

(* One simulation of [bm] where every policy decision flows through [wrap];
   the ordinal counter is shared across every compile of the run. *)
let measure_with cfg bm wrap =
  let prog = W.Suites.program bm in
  let fctx = Features.make_ctx prog in
  let base = Policy.of_heuristic cfg.heuristic in
  let ordinal = ref 0 in
  let factory profile =
    let f = Features.with_profile fctx profile in
    {
      Policy.name = "dataset";
      decide =
        (fun s ->
          let v = base.Policy.decide s in
          let k = !ordinal in
          incr ordinal;
          wrap ~ordinal:k ~features:(fun () -> Features.of_site f s) v);
    }
  in
  let mcfg = Machine.config ~policy_factory:factory cfg.scenario cfg.heuristic in
  Core.Measure.of_measurement (Runner.measure ~iterations:cfg.iterations mcfg cfg.platform prog)

let enumerate cfg benches =
  List.map
    (fun bm ->
      let sites = Vec.create () in
      let _ =
        measure_with cfg bm (fun ~ordinal:_ ~features v ->
            Vec.push sites (features (), v.Policy.accept);
            v)
      in
      (bm.W.Suites.bname, Vec.to_array sites))
    benches

let sites_labeled = Metric.counter "policy.sites_labeled"
let label_flips = Metric.counter "policy.label_flips"

let generate ?resume ?on_benchmark cfg benches =
  let done_tbl : (string * int, example) Hashtbl.t = Hashtbl.create 256 in
  (match resume with
  | Some path when Sys.file_exists path ->
    let prior, _bad = load path in
    List.iter (fun e -> Hashtbl.replace done_tbl (e.x_bench, e.x_ordinal) e) prior
  | _ -> ());
  let append_oc =
    match resume with
    | Some path -> Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
    | None -> None
  in
  let out = Vec.create () in
  List.iter
    (fun bm ->
      let bname = bm.W.Suites.bname in
      let sites = Vec.create () in
      let base_times =
        measure_with cfg bm (fun ~ordinal:_ ~features v ->
            Vec.push sites (features (), v.Policy.accept);
            v)
      in
      let base_metric = metric cfg bm base_times in
      let n = Vec.length sites in
      let limit = if cfg.max_sites = 0 then n else min n cfg.max_sites in
      (match on_benchmark with Some f -> f bname limit | None -> ());
      for k = 0 to limit - 1 do
        let feats, base_accept = Vec.get sites k in
        match Hashtbl.find_opt done_tbl (bname, k) with
        | Some e -> Vec.push out e
        | None ->
          let flipped =
            Sandbox.run ~max_retries:cfg.max_retries ~classify:Objective.transient_failure
              ~corrupt:Sandbox.corrupt ~site:"policy.label" (fun () ->
                let t =
                  measure_with cfg bm (fun ~ordinal ~features:_ v ->
                      if ordinal = k then
                        { Policy.accept = not v.Policy.accept; rule = "oracle_flip" }
                      else v)
                in
                metric cfg bm t)
          in
          let label, benefit =
            match flipped with
            | Ok { Sandbox.result = fm; _ } ->
              let gain = (base_metric -. fm) /. Float.max base_metric 1.0 in
              if fm < base_metric then (not base_accept, gain) else (base_accept, gain)
            | Error _ ->
              (* The flipped configuration kept failing: keep the decision
                 the base system actually makes (it demonstrably runs). *)
              (base_accept, 0.0)
          in
          let e =
            {
              x_bench = bname;
              x_ordinal = k;
              x_features = feats;
              x_base = base_accept;
              x_label = label;
              x_benefit = benefit;
            }
          in
          Metric.incr sites_labeled;
          if label <> base_accept then Metric.incr label_flips;
          (match append_oc with
          | Some oc ->
            output_string oc (to_line e ^ "\n");
            flush oc
          | None -> ());
          Vec.push out e
      done;
      if Trace.enabled () then
        Trace.emit "policy.dataset"
          ~fields:
            [
              ("bench", Event.Str bname);
              ("sites", Event.Int n);
              ("labeled", Event.Int limit);
            ])
    benches;
  (match append_oc with Some oc -> close_out oc | None -> ());
  Array.to_list (Vec.to_array out)

(* Labeling is by far the most expensive step of the CART/GP protocols (one
   flip measurement per site); when [file] already holds a usable dataset,
   load it instead of recomputing.  An absent, empty, or fully corrupt file
   falls back to [generate ?resume:file], which also (re)populates it. *)
let load_or_generate ?file ?on_benchmark cfg benches =
  match file with
  | Some path when Sys.file_exists path -> (
    match load path with
    | [], _ -> generate ?resume:file ?on_benchmark cfg benches
    | examples, _ ->
      (* looked up at use, not module init: counters survive a registry
         reset (Metric.reset_all) between runs in one process *)
      Metric.incr (Metric.counter "policy.dataset_reused");
      examples)
  | _ -> generate ?resume:file ?on_benchmark cfg benches
