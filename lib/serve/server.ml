module Pool = Inltune_support.Pool
module Metric = Inltune_obs.Metric
module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event
module Json = Inltune_obs.Json
module Sandbox = Inltune_resilience.Sandbox
module Machine = Inltune_vm.Machine
module Platform = Inltune_vm.Platform
module Heuristic = Inltune_opt.Heuristic
module Plan = Inltune_opt.Plan
module Suites = Inltune_workloads.Suites
module Corpus = Inltune_workloads.Corpus
module Measure = Inltune_core.Measure
module Objective = Inltune_core.Objective
module Tuner = Inltune_core.Tuner
module Params = Inltune_core.Params
module Fitcache = Inltune_core.Fitcache

(* The tuning daemon.


   One process owns the worker-domain pool, the fitness cache, and the
   measurement memo; many clients multiplex compile/tune/measure requests
   onto them over a line-delimited JSON protocol, so tenants amortize each
   other's simulations instead of each paying for a cold cache.  The design
   priority is that the daemon *degrades* instead of failing: saturation
   produces explicit backpressure replies, poisoned requests quarantine the
   genome but never the server, sustained overload switches to cache-only
   answers, and SIGTERM drains in-flight work before exiting.

   Threading: the accept loop and each connection run on systhreads in the
   main domain (they spend their time blocked in [select]/simulations);
   simulations themselves are multiplexed onto the shared worker-domain
   pool.  Requests on one connection are processed strictly in order —
   concurrency comes from concurrent connections, which matches the
   one-outstanding-request-per-client protocol. *)

let bump name = Metric.incr (Metric.counter name)

(* --- tenant attribution -------------------------------------------------- *)

(* [Fitcache]'s tenant hook is ambient (the cache is consulted deep inside
   [Measure.run], far from any request context), so the daemon keys the
   current tenant by (domain, thread): connection threads register
   themselves for the duration of a request, and work items submitted to
   the pool re-register inside the worker.  Each pool worker is a single
   thread in its own domain and runs one item at a time, so entries never
   race; stale entries are overwritten by the next item. *)
let tenant_mu = Mutex.create ()
let tenant_tbl : (int * int, string) Hashtbl.t = Hashtbl.create 32

let self_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let current_tenant () =
  Mutex.lock tenant_mu;
  let r = Hashtbl.find_opt tenant_tbl (self_key ()) in
  Mutex.unlock tenant_mu;
  r

let with_tenant tenant f =
  let k = self_key () in
  Mutex.lock tenant_mu;
  Hashtbl.replace tenant_tbl k tenant;
  Mutex.unlock tenant_mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock tenant_mu;
      Hashtbl.remove tenant_tbl k;
      Mutex.unlock tenant_mu)
    f

(* --- configuration ------------------------------------------------------- *)

type config = {
  permits : int;
  queue_cap : int;
  quota_rate : float;
  quota_burst : float;
  default_deadline_ms : int;
  degrade_after : int;
  degrade_window_s : float;
  cooldown_s : float;
  drain_timeout_s : float;
  reply_cache_cap : int;
  quiet : bool;
}

let default_config =
  {
    permits = 4;
    queue_cap = 8;
    quota_rate = 0.0;
    quota_burst = 10.0;
    default_deadline_ms = 0;
    degrade_after = 5;
    degrade_window_s = 10.0;
    cooldown_s = 5.0;
    drain_timeout_s = 10.0;
    reply_cache_cap = 512;
    quiet = false;
  }

type t = {
  cfg : config;
  endpoint : Proto.endpoint;
  listen_fd : Unix.file_descr;
  adm : Admission.t;
  bucket : Bucket.t;
  replies : Replycache.t;
  stop_flag : bool Atomic.t;
  degraded : bool Atomic.t;
  press_mu : Mutex.t;
  mutable pressure : float list;  (* recent pressure-event timestamps *)
  mutable last_pressure : float;
  quar_mu : Mutex.t;
  quarantined : (string, string) Hashtbl.t;  (* genome key -> reason *)
  conns : int Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable housekeeper : Thread.t option;
}

(* Raised inside request execution when its deadline passed or the daemon is
   draining; the sandbox must let it escape (it is not a failure of the
   request's genome). *)
exception Cancelled_request of string  (* "timeout" | "shutdown" *)

let log srv fmt =
  Printf.ksprintf
    (fun s -> if not srv.cfg.quiet then Printf.eprintf "inltune serve: %s\n%!" s)
    fmt

(* --- degraded mode ------------------------------------------------------- *)

(* Pressure events are sheds and request failures.  Enough of them inside
   the window flips the daemon to degraded (cache-only answers, default
   heuristics); a full cooldown with no pressure flips it back.  The
   hysteresis keeps the mode from flapping per-request. *)
let note_pressure srv =
  let now = Pool.now () in
  Mutex.lock srv.press_mu;
  srv.last_pressure <- now;
  srv.pressure <-
    now :: List.filter (fun ts -> now -. ts <= srv.cfg.degrade_window_s) srv.pressure;
  let n = List.length srv.pressure in
  Mutex.unlock srv.press_mu;
  if n >= srv.cfg.degrade_after && Atomic.compare_and_set srv.degraded false true
  then begin
    bump "serve.degraded_entered";
    if Trace.enabled () then
      Trace.emit "serve.degraded" ~fields:[ ("pressure_events", Event.Int n) ];
    log srv "entering degraded mode (%d pressure events in %.0fs)" n
      srv.cfg.degrade_window_s
  end

let maybe_recover srv =
  if Atomic.get srv.degraded then begin
    Mutex.lock srv.press_mu;
    let quiet_for = Pool.now () -. srv.last_pressure in
    Mutex.unlock srv.press_mu;
    if quiet_for >= srv.cfg.cooldown_s
       && Atomic.compare_and_set srv.degraded true false
    then begin
      bump "serve.degraded_exited";
      log srv "recovered from degraded mode (%.1fs without pressure)" quiet_for
    end
  end

(* --- quarantine ---------------------------------------------------------- *)

(* A request whose execution kept failing poisons its *genome*, not the
   server: the exact (op, parameters) key is remembered and refused until
   restart, so one crashing heuristic cannot grind the daemon down through
   client retries. *)
let genome_key = function
  | Proto.Measure m ->
    Printf.sprintf "measure/%s/%s/%s/%d/%s" m.m_bench m.m_scenario m.m_platform
      m.m_iterations m.m_heuristic
  | Proto.Tune u ->
    Printf.sprintf "tune/%s/%d/%d/%d/%s" u.t_scenario u.t_pop u.t_gens u.t_seed
      (String.concat "," u.t_suite)
  | Proto.Ping | Proto.Stats -> ""

let quarantine_reason srv gk =
  if gk = "" then None
  else begin
    Mutex.lock srv.quar_mu;
    let r = Hashtbl.find_opt srv.quarantined gk in
    Mutex.unlock srv.quar_mu;
    r
  end

let add_quarantine srv gk reason =
  if gk <> "" then begin
    Mutex.lock srv.quar_mu;
    if not (Hashtbl.mem srv.quarantined gk) then begin
      Hashtbl.add srv.quarantined gk reason;
      bump "serve.genomes_quarantined"
    end;
    Mutex.unlock srv.quar_mu
  end

(* --- request validation -------------------------------------------------- *)

(* Benchmark names resolve against the hand-modeled suites first, then the
   generated corpus, so tenants can measure/tune over corpus programs too. *)
let find_bench name =
  match Corpus.find_opt name with Some bm -> bm | None -> Suites.find name

type jmeasure = {
  jm_bench : Suites.benchmark;
  jm_scenario : Machine.scenario;
  jm_platform : Platform.t;
  jm_heuristic : Heuristic.t;
  jm_iterations : int;
}

type jtune = {
  jt_id : Tuner.scenario_id;
  jt_budget : Tuner.budget;
  jt_suite : Suites.benchmark list;
}

type job = Jmeasure of jmeasure | Jtune of jtune

(* A request outside a bound the simulator enforces gets the [error] reply
   of any invalid request: it never reaches the simulator, so it is neither
   a failure nor quarantined nor a pressure event. *)
let bound field = Result.iter_error (fun m -> invalid_arg (Printf.sprintf "bad %s: %s" field m))

let validate = function
  | Proto.Ping | Proto.Stats -> assert false (* handled before validation *)
  | Proto.Measure m -> (
    match
      let scenario =
        match m.m_scenario with
        | "opt" -> Machine.Opt
        | "adapt" -> Machine.Adapt
        | "ladder" -> Machine.Ladder
        | s -> invalid_arg ("unknown scenario " ^ s)
      in
      let platform = Platform.by_name m.m_platform in
      let heuristic = Params.heuristic_of_string m.m_heuristic in
      let bench = find_bench m.m_bench in
      bound "iterations" (Inltune_vm.Runner.check_iterations m.m_iterations);
      Jmeasure
        {
          jm_bench = bench;
          jm_scenario = scenario;
          jm_platform = platform;
          jm_heuristic = heuristic;
          jm_iterations = m.m_iterations;
        }
    with
    | job -> Ok job
    | exception Invalid_argument msg -> Error msg
    | exception Failure msg -> Error msg)
  | Proto.Tune u -> (
    match
      let id = Tuner.scenario_of_string u.t_scenario in
      let suite =
        match u.t_suite with [] -> Suites.spec | names -> List.map find_bench names
      in
      let budget = { Tuner.pop = u.t_pop; gens = u.t_gens; seed = u.t_seed } in
      bound (if u.t_gens < 0 then "gens" else "pop") (Tuner.check_budget budget);
      Jtune { jt_id = id; jt_budget = budget; jt_suite = suite }
    with
    | job -> Ok job
    | exception Invalid_argument msg -> Error msg)

(* --- execution ----------------------------------------------------------- *)

(* Each request attempt checks the "serve" fault site once
   ([Objective.fault_gate]); an injected [Corrupt] still runs the work, then
   reports it NaN, which [result_corrupt] rejects. *)
type job_result = Rmeasure of Measure.times | Rtune of Tuner.outcome

let result_corrupt = function
  | Rmeasure tm when Float.is_nan tm.Measure.running -> Some "corrupt measurement (NaN)"
  | Rtune oc when Float.is_nan oc.Tuner.fitness -> Some "corrupt fitness (NaN)"
  | _ -> None

let past_deadline deadline =
  match deadline with None -> false | Some d -> Pool.now () > d

let run_measure srv ~tenant ~deadline m =
  let corrupt = Objective.fault_gate "serve" in
  (* The simulation is multiplexed onto the shared worker-domain pool:
     [priority] so interactive requests overtake bulk tuning batches, and
     the [cancelled] hook so an item still queued when its deadline passes
     (or the daemon starts draining) never simulates at all. *)
  let work () =
    with_tenant tenant (fun () ->
        Measure.run ~iterations:m.jm_iterations ~scenario:m.jm_scenario
          ~platform:m.jm_platform ~heuristic:m.jm_heuristic m.jm_bench)
  in
  let cancelled () = Atomic.get srv.stop_flag || past_deadline deadline in
  let task =
    Pool.submit (Pool.get_default ()) ~priority:true ~cancelled
      (fun () -> work ())
      [| () |]
  in
  match (Pool.await task).(0) with
  | Ok tm -> if corrupt then { tm with Measure.running = Float.nan } else tm
  | Error Pool.Cancelled ->
    raise
      (Cancelled_request (if Atomic.get srv.stop_flag then "shutdown" else "timeout"))
  | Error e -> raise e

let run_tune srv ~tenant ~deadline u =
  let corrupt = Objective.fault_gate "serve" in
  (* Cooperative cancellation at generation granularity: the GA loop itself
     is untouched (its results must stay bit-identical to the offline tune
     path), the hook just refuses to continue past a dead deadline. *)
  let on_generation (_ : Inltune_ga.Evolve.progress) =
    if Atomic.get srv.stop_flag then raise (Cancelled_request "shutdown");
    if past_deadline deadline then raise (Cancelled_request "timeout")
  in
  with_tenant tenant (fun () ->
      let oc =
        Tuner.tune ~budget:u.jt_budget ~on_generation ~suite:u.jt_suite u.jt_id
      in
      if corrupt then { oc with Tuner.fitness = Float.nan } else oc)

let heuristic_json h =
  Json.List
    (Array.to_list (Array.map (fun v -> Json.Num (float_of_int v)) (Heuristic.to_array h)))

let measure_fields ?(status = "ok") ?(source = "simulated") (tm : Measure.times) =
  [
    ("status", Json.Str status);
    ("source", Json.Str source);
    ("running_cycles", Json.Num tm.Measure.running);
    ("total_cycles", Json.Num tm.Measure.total);
    ("compile_cycles", Json.Num tm.Measure.compile);
  ]

let tune_fields (oc : Tuner.outcome) =
  [
    ("status", Json.Str "ok");
    ("scenario", Json.Str oc.Tuner.spec.Tuner.label);
    ("genome", heuristic_json oc.Tuner.heuristic);
    ("heuristic", Json.Str (Heuristic.to_string oc.Tuner.heuristic));
    ("fitness", Json.Num oc.Tuner.fitness);
  ]
  @
  match oc.Tuner.degraded with
  | Some why -> [ ("search_degraded", Json.Str why) ]
  | None -> []

let result_fields = function
  | Rmeasure tm -> measure_fields tm
  | Rtune oc -> tune_fields oc

(* Degraded execution: never simulate.  A measure whose decision signature
   is already cached is answered bit-identically from the cache (the
   [Measure.run] call below finds it without simulating); anything else
   falls back to the Jikes-default measurement / default heuristic, clearly
   labelled so clients know what they got.  The fallback measure goes
   through the fitness cache like any other, so it is attributed to the
   tenant and [Fitcache.clear] forgets it. *)
let execute_degraded ~tenant job =
  bump "serve.degraded_replies";
  with_tenant tenant (fun () ->
      match job with
      | Jmeasure m ->
        if
          Fitcache.mem ~scenario:m.jm_scenario ~platform:m.jm_platform
            ~heuristic:m.jm_heuristic ~inline_enabled:true ~plan:Plan.default
            ~iterations:m.jm_iterations
            (Suites.program m.jm_bench)
        then
          measure_fields ~status:"degraded" ~source:"cache"
            (Measure.run ~iterations:m.jm_iterations ~scenario:m.jm_scenario
               ~platform:m.jm_platform ~heuristic:m.jm_heuristic m.jm_bench)
        else
          measure_fields ~status:"degraded" ~source:"default-heuristic"
            (Measure.run ~iterations:m.jm_iterations ~scenario:m.jm_scenario
               ~platform:m.jm_platform ~heuristic:Heuristic.default m.jm_bench)
      | Jtune _ ->
        [
          ("status", Json.Str "degraded");
          ("genome", heuristic_json Heuristic.default);
          ("heuristic", Json.Str (Heuristic.to_string Heuristic.default));
          ("fitness", Json.Num 1.0);
          ("fallback", Json.Str "default-heuristic");
        ])

let request_site = Sandbox.site "serve.request"

let execute srv ~tenant ~deadline ~gk job =
  let classify = function Cancelled_request _ -> false | _ -> true in
  let f () =
    match job with
    | Jmeasure m -> Rmeasure (run_measure srv ~tenant ~deadline m)
    | Jtune u -> Rtune (run_tune srv ~tenant ~deadline u)
  in
  match
    Sandbox.run ~classify ~corrupt:result_corrupt ~site:request_site f
  with
  | Ok o ->
    if past_deadline deadline then begin
      (* The work finished, but nobody is waiting for a stale answer; the
         result still landed in the caches, so a retry is nearly free. *)
      bump "serve.timeouts";
      ([ ("status", Json.Str "timeout"); ("note", Json.Str "completed after deadline") ], false)
    end
    else begin
      bump "serve.ok";
      (result_fields o.Sandbox.result @ [ ("attempts", Json.Num (float_of_int o.Sandbox.o_attempts)) ], true)
    end
  | Error fl ->
    bump "serve.failed";
    note_pressure srv;
    add_quarantine srv gk fl.Sandbox.f_reason;
    ( [
        ("status", Json.Str "failed");
        ("reason", Json.Str fl.Sandbox.f_reason);
        ("attempts", Json.Num (float_of_int fl.Sandbox.f_attempts));
        ("quarantined", Json.Bool true);
      ],
      true )
  | exception Cancelled_request "shutdown" ->
    bump "serve.shutdown_replies";
    ([ ("status", Json.Str "shutdown") ], false)
  | exception Cancelled_request _ ->
    bump "serve.timeouts";
    ([ ("status", Json.Str "timeout") ], false)

(* --- stats --------------------------------------------------------------- *)

let stats_fields srv =
  let interesting (name, _) =
    List.exists
      (fun pfx -> String.length name >= String.length pfx
                  && String.sub name 0 (String.length pfx) = pfx)
      [ "serve."; "fitness."; "pool."; "measure." ]
  in
  let counters =
    Metric.counters_snapshot () |> List.filter interesting
    |> List.map (fun (n, v) -> (n, Json.Num (float_of_int v)))
  in
  [
    ("status", Json.Str "ok");
    ("in_flight", Json.Num (float_of_int (Admission.in_flight srv.adm)));
    ("queued", Json.Num (float_of_int (Admission.waiting srv.adm)));
    ("connections", Json.Num (float_of_int (Atomic.get srv.conns)));
    ("tenants", Json.Num (float_of_int (Bucket.tenant_count srv.bucket)));
    ("fitcache_entries", Json.Num (float_of_int (Fitcache.size ())));
    ("counters", Json.Obj counters);
  ]

(* --- the request pipeline ------------------------------------------------ *)

let retry_after_ms wait_s =
  ("retry_after_ms", Json.Num (Float.of_int (int_of_float (Float.ceil (wait_s *. 1000.)))))

let dispatch srv (req : Proto.request) =
  let idf = match req.id with Some i -> [ ("id", Json.Str i) ] | None -> [] in
  match req.op with
  | Proto.Ping -> (idf @ [ ("status", Json.Str "ok"); ("pong", Json.Bool true) ], false)
  | Proto.Stats -> (idf @ stats_fields srv, false)
  | (Proto.Measure _ | Proto.Tune _) as op -> (
    let now0 = Pool.now () in
    let deadline =
      match (req.deadline_ms, srv.cfg.default_deadline_ms) with
      | Some ms, _ -> Some (now0 +. (float_of_int ms /. 1000.))
      | None, d when d > 0 -> Some (now0 +. (float_of_int d /. 1000.))
      | None, _ -> None
    in
    match Bucket.take srv.bucket ~now:now0 req.tenant with
    | Error wait ->
      bump "serve.quota_denied";
      (idf @ [ ("status", Json.Str "quota"); retry_after_ms wait ], false)
    | Ok () -> (
      let gk = genome_key op in
      match quarantine_reason srv gk with
      | Some reason ->
        bump "serve.quarantine_hits";
        ( idf
          @ [
              ("status", Json.Str "quarantined");
              ("reason", Json.Str reason);
            ],
          false )
      | None -> (
        match validate op with
        | Error e ->
          bump "serve.errors";
          (idf @ [ ("status", Json.Str "error"); ("error", Json.Str e) ], true)
        | Ok job ->
          if Atomic.get srv.degraded then (idf @ execute_degraded ~tenant:req.tenant job, true)
          else begin
            match Admission.acquire ?deadline srv.adm with
            | Admission.Overloaded ->
              bump "serve.shed";
              note_pressure srv;
              (* Honest hint: the queue is full of simulations; suggest a
                 beat proportional to what's in front of the client. *)
              let hint = 0.25 *. float_of_int (1 + Admission.waiting srv.adm) in
              ( idf @ [ ("status", Json.Str "overloaded"); retry_after_ms hint ],
                false )
            | Admission.Timed_out ->
              bump "serve.timeouts";
              (idf @ [ ("status", Json.Str "timeout") ], false)
            | Admission.Stopping ->
              bump "serve.shutdown_replies";
              (idf @ [ ("status", Json.Str "shutdown") ], false)
            | Admission.Admitted ->
              Fun.protect
                ~finally:(fun () -> Admission.release srv.adm)
                (fun () ->
                  let fields, cacheable =
                    execute srv ~tenant:req.tenant ~deadline ~gk job
                  in
                  (idf @ fields, cacheable))
          end)))

let status_of fields =
  match List.assoc_opt "status" fields with Some (Json.Str s) -> s | _ -> "?"

let handle_line srv line =
  bump "serve.requests";
  let t0 = Pool.now () in
  let fields =
    match Proto.parse_request line with
    | Error e ->
      bump "serve.errors";
      [ ("status", Json.Str "error"); ("error", Json.Str e) ]
    | Ok req -> (
      let dedup_key = Option.map (fun id -> req.tenant ^ ":" ^ id) req.id in
      match Option.bind dedup_key (Replycache.find srv.replies) with
      | Some cached ->
        bump "serve.duplicates";
        cached @ [ ("duplicate", Json.Bool true) ]
      | None ->
        let fields, cacheable = dispatch srv req in
        (match dedup_key with
        | Some k when cacheable -> Replycache.store srv.replies k fields
        | _ -> ());
        fields)
  in
  let ms = (Pool.now () -. t0) *. 1000. in
  Metric.observe (Metric.histogram "serve.latency_ms") ms;
  if Trace.enabled () then
    Trace.emit "serve.request"
      ~fields:
        [
          ("status", Event.Str (status_of fields));
          ("ms", Event.Float ms);
          ("degraded", Event.Bool (Atomic.get srv.degraded));
        ];
  let mode = if Atomic.get srv.degraded then "degraded" else "normal" in
  Proto.render_reply (fields @ [ ("mode", Json.Str mode) ])

(* --- connection handling ------------------------------------------------- *)

let send_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | 0 -> ()
      | n -> go (off + n)
      | exception Unix.Unix_error _ -> ()
  in
  go 0

let conn_loop srv fd =
  Atomic.incr srv.conns;
  bump "serve.connections";
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let process_buffered () =
    let rec go () =
      let s = Buffer.contents buf in
      match String.index_opt s '\n' with
      | None -> ()
      | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear buf;
        Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
        if String.trim line <> "" then send_line fd (handle_line srv line);
        go ()
    in
    go ()
  in
  let rec loop () =
    if not (Atomic.get srv.stop_flag) then begin
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> () (* client closed *)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          process_buffered ();
          loop ()
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Atomic.decr srv.conns)
    loop

let accept_loop srv =
  while not (Atomic.get srv.stop_flag) do
    match Unix.select [ srv.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept srv.listen_fd with
      | fd, _ -> ignore (Thread.create (fun () -> conn_loop srv fd) ())
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  done

(* Periodic duties that cannot ride on request traffic: waking queued
   waiters so their deadlines are honored even when nothing completes, and
   leaving degraded mode after a quiet cooldown. *)
let housekeeping srv =
  while not (Atomic.get srv.stop_flag) do
    Thread.delay 0.1;
    Admission.kick srv.adm;
    maybe_recover srv
  done

(* --- lifecycle ----------------------------------------------------------- *)

let bind_endpoint = function
  | Proto.Unix_path path ->
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Proto.Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    fd

let start ?(config = default_config) endpoint =
  Fitcache.set_tenant_hook current_tenant;
  let listen_fd = bind_endpoint endpoint in
  let srv =
    {
      cfg = config;
      endpoint;
      listen_fd;
      adm = Admission.create ~permits:config.permits ~queue_cap:config.queue_cap;
      bucket = Bucket.create ~rate:config.quota_rate ~burst:config.quota_burst;
      replies = Replycache.create ~cap:config.reply_cache_cap;
      stop_flag = Atomic.make false;
      degraded = Atomic.make false;
      press_mu = Mutex.create ();
      pressure = [];
      last_pressure = 0.0;
      quar_mu = Mutex.create ();
      quarantined = Hashtbl.create 16;
      conns = Atomic.make 0;
      accept_thread = None;
      housekeeper = None;
    }
  in
  srv.accept_thread <- Some (Thread.create accept_loop srv);
  srv.housekeeper <- Some (Thread.create housekeeping srv);
  srv

let stop srv =
  if not (Atomic.exchange srv.stop_flag true) then begin
    Admission.stop srv.adm;
    Option.iter Thread.join srv.accept_thread;
    Option.iter Thread.join srv.housekeeper;
    (* Drain: connection threads notice the flag within one select tick,
       finish the request they are on (cancellation hooks turn long tunes
       into prompt "shutdown" replies), and close. *)
    let drain_deadline = Pool.now () +. srv.cfg.drain_timeout_s in
    while Atomic.get srv.conns > 0 && Pool.now () < drain_deadline do
      Thread.delay 0.05
    done;
    if Atomic.get srv.conns > 0 then
      log srv "drain timeout with %d connection(s) still open" (Atomic.get srv.conns);
    (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
    match srv.endpoint with
    | Proto.Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
    | Proto.Tcp _ -> ()
  end

let degraded_mode srv = Atomic.get srv.degraded

(* Foreground entry point for the CLI: serve until SIGTERM/SIGINT, then
   drain and return.  Signals only set a flag — all real work happens on
   the calling thread, where it is safe. *)
let run ?config endpoint =
  let stop_requested = Atomic.make false in
  let note _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle note);
  Sys.set_signal Sys.sigint (Sys.Signal_handle note);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let srv = start ?config endpoint in
  log srv "listening on %s (permits=%d queue=%d)" (Proto.endpoint_to_string endpoint)
    srv.cfg.permits srv.cfg.queue_cap;
  while not (Atomic.get stop_requested) do
    Thread.delay 0.1
  done;
  log srv "signal received, draining";
  stop srv;
  log srv "bye"
