open Inltune_jir
open Inltune_opt
open Inltune_vm
open Inltune_core
module W = Inltune_workloads
module Rng = Inltune_support.Rng
module Metric = Inltune_obs.Metric
module Genome = Inltune_ga.Genome
module Gp = Inltune_gp
module Features = Inltune_policy.Features

let metric name = Metric.value (Metric.counter name)

let with_clean_caches f =
  let reference = Machine.reference_enabled () in
  Machine.set_reference false;
  Fitcache.set_enabled true;
  Fitcache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Machine.set_reference reference;
      Fitcache.set_enabled true;
      Fitcache.clear ())
    f

let corpus name = Option.get (W.Corpus.find_opt name)

let bench_of_program p =
  { W.Suites.bname = p.Ir.pname; bdescription = "test program"; generate = (fun ?scale:_ () -> p) }

(* A query — what decides, under which plan — and the cache-free
   configuration a fresh simulation of it runs under, spelled out apart
   from [Measure.run_decider]'s. *)
type query = {
  label : string;
  decider : Fitcache.decider;
  plan : Plan.t;
  fresh : Machine.scenario -> Ir.program -> Machine.config;
}

let heuristic_query ?(plan = Plan.default) h =
  {
    label = Heuristic.to_string h ^ " / " ^ Plan.digest plan;
    decider = Fitcache.Heuristic h;
    plan;
    fresh = (fun scenario _ -> Machine.config ~plan scenario h);
  }

let random_plan_genome rng = Params.split_plan_genome (Genome.random Params.plan_genome_spec rng)

(* A random query: a plan genome (heuristic genes plus plan genes), a bare
   heuristic under the default plan, or a GP tree under either. *)
let random_query rng =
  match Rng.int rng 3 with
  | 0 ->
    let h, plan = random_plan_genome rng in
    heuristic_query ~plan h
  | 1 -> heuristic_query (Params.heuristic_of_genome (Genome.random Params.genome_spec rng))
  | _ ->
    let tree = Gp.Genetic.random rng in
    let plan = if Rng.bool rng then Plan.default else snd (random_plan_genome rng) in
    {
      label = "gp " ^ Gp.Tree.to_text tree ^ " / " ^ Plan.digest plan;
      decider = Gp.Decode.decider tree;
      plan;
      fresh =
        (fun scenario prog ->
          let p = Gp.Decode.policy ~ctx:(Features.make_ctx prog) tree in
          Machine.config ~plan ~policy_factory:(fun _ -> p) scenario Heuristic.default);
    }

(* A hot virtual call whose one implementation calls on: once the caller
   is recompiled, guarded devirtualization turns the site into a static
   call, and inlining the implementation brings in a site the
   implementation owns.  The workloads' virtual implementations are
   leaves, so without this program no recompile would ask about such an
   edge. *)
let dispatch_program =
  let b = Builder.create "trajcache_dispatch" in
  let main = Builder.declare b ~name:"main" ~nargs:0 in
  let caller = Builder.declare b ~name:"caller" ~nargs:2 in
  let impl_a = Builder.declare b ~name:"impl_a" ~nargs:2 in
  let impl_b = Builder.declare b ~name:"impl_b" ~nargs:2 in
  let helper = Builder.declare b ~name:"helper" ~nargs:1 in
  let ka = Builder.new_class b ~name:"A" ~vtable:[| impl_a |] in
  ignore (Builder.new_class b ~name:"B" ~vtable:[| impl_b |] : Ir.kid);
  Builder.define b helper (fun mb -> Builder.ret mb (Builder.add mb 0 (Builder.const mb 3)));
  Builder.define b impl_a (fun mb ->
      let r = Builder.call mb helper [ 1 ] in
      Builder.ret mb (Builder.mul mb r (Builder.const mb 2)));
  Builder.define b impl_b (fun mb -> Builder.ret mb 1);
  Builder.define b caller (fun mb -> Builder.ret mb (Builder.call_virt mb ~slot:0 0 [ 1 ]));
  Builder.define b main (fun mb ->
      let o = Builder.alloc mb ka ~slots:0 in
      let acc = Builder.const mb 0 in
      Builder.for_loop mb ~n:(Builder.const mb 20_000) (fun i ->
          let r = Builder.call mb caller [ o; i ] in
          Builder.emit mb (Ir.Binop (Ir.Add, acc, acc, r)));
      Builder.print mb acc;
      Builder.ret mb acc);
  Builder.set_main b main;
  Builder.finish b

(* SPEC programs, one corpus program per family, random programs and the
   dispatch program above, each under both adaptive scenarios and both
   platforms. *)
let cells =
  let programs =
    [ W.Suites.find "compress"; W.Suites.find "db"; W.Suites.find "jess" ]
    @ List.map corpus
        [ "corpus_chain16"; "corpus_dispatch19"; "corpus_recur22"; "corpus_sweep18";
          "corpus_phase00" ]
    @ List.map (fun seed -> bench_of_program (Gen_random.program ~max_methods:8 seed)) [ 31; 32 ]
    @ [ bench_of_program dispatch_program ]
  in
  Array.of_list
    (List.concat_map
       (fun bm ->
         List.concat_map
           (fun scenario ->
             List.map (fun platform -> (bm, scenario, platform)) [ Platform.x86; Platform.ppc ])
           [ Machine.Adapt; Machine.Ladder ])
       programs)

(* Every answer through [Measure.run_decider] — trie hit or miss — equals a
   cache-free [Runner.measure] of the same query, field for field, so every
   hit is re-simulated.  The trie stays warm across cases, so later cases
   on a cell walk paths earlier ones stored; the windows the walks read
   raise on any edge outside their node's reach, so a walk that needed an
   unrecorded edge fails the case.  The run must include hits by a plan no
   earlier query on that trie used. *)
let test_trie_equals_fresh () =
  with_clean_caches (fun () ->
      let plans_seen = Hashtbl.create 64 in
      let hits = ref 0 and cross_plan = ref 0 and walks = ref 0 in
      let answer_matches (bm, scenario, platform) q =
        let prog = W.Suites.program bm in
        let trie =
          String.concat "/"
            [ bm.W.Suites.bname; Machine.scenario_name scenario; platform.Platform.pname ]
        in
        let h0 = metric "fitness.traj_hits" and m0 = metric "fitness.traj_misses" in
        let got =
          (Measure.run_decider ~scenario ~platform ~plan:q.plan ~decider:q.decider bm).Measure.raw
        in
        let hit = metric "fitness.traj_hits" > h0 in
        if hit || metric "fitness.traj_misses" > m0 then incr walks;
        if hit then begin
          incr hits;
          if not (Hashtbl.mem plans_seen (trie, Plan.digest q.plan)) then incr cross_plan
        end;
        Hashtbl.replace plans_seen (trie, Plan.digest q.plan) ();
        let want = Runner.measure ~iterations:3 (q.fresh scenario prog) platform prog in
        if got <> want then
          QCheck.Test.fail_reportf "%s on %s (%s): answer differs from a fresh simulation" q.label
            trie
            (if hit then "hit" else "miss");
        true
      in
      let prop =
        QCheck.Test.make ~count:150 ~name:"trajectory cache answer = fresh simulation"
          (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
          (fun seed ->
            let rng = Rng.create seed in
            let cell = cells.(Rng.int rng (Array.length cells)) in
            List.for_all (fun _ -> answer_matches cell (random_query rng)) [ 1; 2; 3 ])
      in
      QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |]) prop;
      Alcotest.(check bool) "queries walked the trie" true (!walks > 0);
      Alcotest.(check bool) "some answers were trie hits" true (!hits > 0);
      Alcotest.(check bool) "some hits came from another plan's simulation" true (!cross_plan > 0))

(* The default plan with a knob of a disabled item changed: another plan
   digest, the same compiles. *)
let inert_plan =
  let retune line =
    if String.starts_with ~prefix:"pass inline_leaves " line then
      "pass inline_leaves off leaf_size=13 rounds=2"
    else line
  in
  match
    Plan.of_string
      (String.concat "\n" (List.map retune (String.split_on_char '\n' (Plan.to_string Plan.default))))
  with
  | Ok p -> p
  | Error e -> failwith e

let test_two_plans_share_trajectory () =
  Alcotest.(check bool) "the plans differ" false (Plan.equal inert_plan Plan.default);
  let bm = W.Suites.find "compress" in
  let prog = W.Suites.program bm in
  with_clean_caches (fun () ->
      let run plan =
        (Measure.run_decider ~scenario:Machine.Adapt ~platform:Platform.x86 ~plan
           ~decider:(Fitcache.Heuristic Heuristic.default) bm)
          .Measure.raw
      in
      let s0 = metric "measure.simulations" in
      let a = run Plan.default in
      let nodes = Trajcache.nodes () in
      Alcotest.(check int) "the first plan simulates" (s0 + 1) (metric "measure.simulations");
      Alcotest.(check bool) "its trajectory is stored" true (nodes > 0);
      let h0 = metric "fitness.traj_hits" in
      let b = run inert_plan in
      Alcotest.(check int) "the second plan is a trie hit" (h0 + 1) (metric "fitness.traj_hits");
      Alcotest.(check int) "and simulates nothing" (s0 + 1) (metric "measure.simulations");
      Alcotest.(check int) "one trajectory" nodes (Trajcache.nodes ());
      Alcotest.(check bool) "same measurement" true (a = b);
      let fresh =
        Runner.measure ~iterations:3
          (Machine.config ~plan:inert_plan Machine.Adapt Heuristic.default)
          Platform.x86 prog
      in
      Alcotest.(check bool) "= a fresh simulation of the second plan" true (b = fresh))

let test_clear_empties_trie () =
  let bm = W.Suites.find "db" in
  with_clean_caches (fun () ->
      let run () =
        ignore
          (Measure.run ~scenario:Machine.Ladder ~platform:Platform.ppc ~heuristic:Heuristic.default
             bm
            : Measure.times)
      in
      run ();
      Alcotest.(check bool) "nodes stored" true (Trajcache.nodes () > 0);
      Alcotest.(check bool) "bytes counted" true (Trajcache.bytes () > 0);
      Fitcache.clear ();
      Alcotest.(check int) "no nodes after clear" 0 (Trajcache.nodes ());
      Alcotest.(check int) "no bytes after clear" 0 (Trajcache.bytes ());
      let s0 = metric "measure.simulations" in
      run ();
      Alcotest.(check int) "the query simulates again" (s0 + 1) (metric "measure.simulations"))

(* A stored tree reads the live profile at every compile, and the
   reference interpreter is the oracle the flat VM is checked against:
   neither walks nor grows the trie; nor does a query with the fitness
   cache off. *)
let test_bypassed () =
  let bm = W.Suites.find "compress" in
  let untouched what f =
    with_clean_caches (fun () ->
        let walks () = metric "fitness.traj_hits" + metric "fitness.traj_misses" in
        let w0 = walks () in
        f ();
        Alcotest.(check int) (what ^ ": no walk") w0 (walks ());
        Alcotest.(check int) (what ^ ": no node") 0 (Trajcache.nodes ()))
  in
  let measure ?(decider = Fitcache.Heuristic Heuristic.default) () =
    ignore
      (Measure.run_decider ~scenario:Machine.Adapt ~platform:Platform.x86 ~decider bm
        : Measure.times)
  in
  let cart =
    Inltune_policy.Store.Tree
      (Inltune_policy.Dtree.Split
         {
           feat = 0;
           thresh = 25.5;
           le = Inltune_policy.Dtree.Leaf true;
           gt = Inltune_policy.Dtree.Leaf false;
         })
  in
  untouched "profiled policy" (measure ~decider:(Inltune_policy.Apply.decider cart));
  untouched "reference interpreter" (fun () ->
      Machine.set_reference true;
      measure ());
  untouched "fitness cache off" (fun () ->
      Fitcache.set_enabled false;
      measure ())

let pass_runs () =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix:"pass." name && String.ends_with ~suffix:".runs" name then
        acc + v
      else acc)
    0 (Metric.counters_snapshot ())

(* A miss hands the outputs its walk computed to the simulation, so it
   runs each recompile's pipeline once: as many pass runs as a trie-less
   simulation of the query. *)
let test_miss_runs_no_pipeline_twice () =
  let bm = corpus "corpus_sweep18" in
  let prog = W.Suites.program bm in
  let rng = Rng.create 11 in
  with_clean_caches (fun () ->
      let walked_misses = ref 0 in
      for i = 1 to 12 do
        let q = random_query rng in
        let r0 = pass_runs () in
        ignore
          (Runner.measure ~iterations:3 (q.fresh Machine.Adapt prog) Platform.x86 prog
            : Runner.measurement);
        let fresh_runs = pass_runs () - r0 in
        let m0 = metric "fitness.traj_misses" and r0 = pass_runs () in
        ignore
          (Measure.run_decider ~scenario:Machine.Adapt ~platform:Platform.x86 ~plan:q.plan
             ~decider:q.decider bm
            : Measure.times);
        if metric "fitness.traj_misses" > m0 then begin
          if i > 1 then incr walked_misses;
          Alcotest.(check int) (q.label ^ ": pass runs of a miss") fresh_runs (pass_runs () - r0)
        end
      done;
      Alcotest.(check bool) "misses below a stored root" true (!walked_misses > 0))

(* The edge digest covers the output's method, size_peak and size_after. *)
let test_digest_covers_output () =
  let prog = W.Suites.program (W.Suites.find "compress") in
  let ((code, stats) as out) =
    Pipeline.run prog (Pipeline.opt_config Heuristic.default) prog.Ir.methods.(prog.Ir.main)
  in
  let d = Trajcache.output_digest in
  Alcotest.(check bool) "equal outputs, equal digests" true (d out = d (code, stats));
  Alcotest.(check bool) "size_peak" false
    (d out = d (code, { stats with Pipeline.size_peak = stats.Pipeline.size_peak + 1 }));
  Alcotest.(check bool) "size_after" false
    (d out = d (code, { stats with Pipeline.size_after = stats.Pipeline.size_after + 1 }));
  Alcotest.(check bool) "method" false (d out = d ({ code with Ir.nregs = code.Ir.nregs + 1 }, stats))

(* reach(m) follows static calls and every class's vtable entry at a
   virtual call's slot; a stored window answers inside it and raises
   outside it. *)
let test_reach_and_strict_view () =
  let prog = dispatch_program in
  let mid name =
    (List.find (fun m -> m.Ir.mname = name) (Array.to_list prog.Ir.methods)).Ir.mid
  in
  let facts = Facts.of_program prog in
  let reached m =
    List.sort compare
      (List.filter
         (fun o -> Bytes.get (Machine.reach facts m) o <> '\000')
         (List.init (Array.length prog.Ir.methods) Fun.id))
  in
  let mids names = List.sort compare (List.map mid names) in
  Alcotest.(check (list int)) "caller reaches both implementations and on"
    (mids [ "caller"; "impl_a"; "impl_b"; "helper" ])
    (reached (mid "caller"));
  Alcotest.(check (list int)) "main reaches everything"
    (mids [ "main"; "caller"; "impl_a"; "impl_b"; "helper" ])
    (reached (mid "main"));
  Alcotest.(check (list int)) "a leaf reaches itself" (mids [ "helper" ]) (reached (mid "helper"));
  let n = Array.length prog.Ir.methods in
  let view =
    Machine.node_view facts [| mid "caller"; 10; (mid "caller" * n) + mid "impl_a"; 7 |]
  in
  Alcotest.(check int) "recorded edge" 7
    (view.Hotpath.edge_count ~site_owner:(mid "caller") ~callee:(mid "impl_a"));
  Alcotest.(check int) "unrecorded edge of a reached owner" 0
    (view.Hotpath.edge_count ~site_owner:(mid "impl_a") ~callee:(mid "helper"));
  Alcotest.(check int) "total calls" 10 (view.Hotpath.total_calls ());
  match view.Hotpath.edge_count ~site_owner:(mid "main") ~callee:(mid "caller") with
  | _ -> Alcotest.fail "an edge outside the reach was answered"
  | exception Machine.Outside_reach _ -> ()

(* --- the suffix memo ---------------------------------------------------- *)

let chain_counts () = (metric "fitness.traj_chain_hits", metric "fitness.traj_chain_misses")

(* Stored nodes: every optimizing recompile of two queries' simulations,
   per program under Adapt on x86 and Ladder on ppc. *)
let recorded_cells =
  lazy
    (let rng = Rng.create 5 in
     let programs =
       [ W.Suites.find "compress"; corpus "corpus_chain16"; corpus "corpus_dispatch19";
         corpus "corpus_phase00"; bench_of_program (Gen_random.program ~max_methods:8 31);
         bench_of_program dispatch_program ]
     in
     List.concat_map
       (fun bm ->
         let prog = W.Suites.program bm in
         List.filter_map
           (fun (scenario, platform) ->
             let nodes = ref [] in
             List.iter
               (fun q ->
                 ignore
                   (Runner.measure ~iterations:3
                      ~record:(fun r -> nodes := r.Machine.node :: !nodes)
                      (q.fresh scenario prog) platform prog
                     : Runner.measurement))
               [ heuristic_query Heuristic.default; random_query rng ];
             if !nodes = [] then None else Some (prog, scenario, platform, Array.of_list !nodes))
           [ (Machine.Adapt, Platform.x86); (Machine.Ladder, Platform.ppc) ])
       programs
     |> Array.of_list)

(* Two plans that differ only in genes before the last inliner: the
   devirtualization and inline toggles and the strategies. *)
let front_genes = [ 0; 1; 9; 10; 11; 12; 13; 14; 15; 16; 17 ]

let random_plan_pair rng =
  let g = Array.map (fun (lo, hi) -> Rng.range rng lo hi) Plan.tunable_ranges in
  let g' = Array.copy g in
  List.iter
    (fun i ->
      let lo, hi = Plan.tunable_ranges.(i) in
      g'.(i) <- Rng.range rng lo hi)
    front_genes;
  (Plan.of_genes g, Plan.of_genes g')

(* A hand-written plan that devirtualizes again after the last inliner:
   that item reads the profile, so no edge of it may come from the
   memo. *)
let devirt_late_plan =
  let late = { Plan.pass = "guarded_devirt"; enabled = true; knobs = [] } in
  {
    Plan.items =
      Array.concat
        (List.map
           (fun (it : Plan.item) -> if it.Plan.pass = "inline_region" then [| it; late |] else [| it |])
           (Array.to_list Plan.default.Plan.items));
  }

let random_decider rng prog =
  if Rng.bool rng then
    Decider.Heuristic (Params.heuristic_of_genome (Genome.random Params.genome_spec rng))
  else Decider.Policy (Gp.Decode.policy ~ctx:(Features.make_ctx prog) (Gp.Genetic.random rng))

(* At nodes recorded from real Adapt and Ladder runs, the edge a walk
   computes through the memo equals the digest of a whole [Pipeline.run]
   there, for random plan genomes, heuristics and GP trees.  The memo stays
   warm across cases, and each case puts two plans that share every item
   after the last inliner to the same node, so later edges come from
   entries other plans and other fronts added.  A plan with
   [guarded_devirt] after its last inliner must not touch the memo. *)
let test_chained_edge_equals_fresh () =
  with_clean_caches (fun () ->
      let cells = Lazy.force recorded_cells in
      let served = ref 0 in
      let edge_matches rng (prog, scenario, platform, nodes) plan =
        let facts = Facts.of_program prog in
        let node = nodes.(Rng.int rng (Array.length nodes)) in
        let decider = random_decider rng prog in
        let cfg = Machine.config ~plan scenario Heuristic.default in
        let fresh =
          Trajcache.output_digest
            (Pipeline.run prog
               (Machine.pipeline_config cfg platform facts decider (Machine.node_view facts node))
               prog.Ir.methods.(node.(0)))
        in
        let ((h0, m0) as c0) = chain_counts () in
        let got = Trajcache.node_edge cfg platform ~decider prog node in
        let h1, m1 = chain_counts () in
        let chained = (h1, m1) <> c0 in
        if h1 > h0 then incr served;
        let bypass = Pipeline.context_free_suffix (Machine.optimizing_plan cfg) = None in
        if bypass = chained then
          QCheck.Test.fail_reportf "%s: chain %s" (Plan.digest plan)
            (if bypass then "used by a plan it cannot serve" else "not used");
        if m1 > m0 && h1 > h0 then QCheck.Test.fail_report "one node counted twice";
        if got <> fresh then
          QCheck.Test.fail_reportf "%s at method %d of %s: chained edge differs from a fresh pipeline"
            (Plan.to_string plan) node.(0) prog.Ir.pname;
        true
      in
      let prop =
        QCheck.Test.make ~count:200 ~name:"chained edge = fresh pipeline"
          (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
          (fun seed ->
            let rng = Rng.create seed in
            let cell = cells.(Rng.int rng (Array.length cells)) in
            let a, b = random_plan_pair rng in
            edge_matches rng cell a && edge_matches rng cell b
            && (Rng.int rng 4 > 0 || edge_matches rng cell devirt_late_plan))
      in
      Alcotest.(check bool) "guarded_devirt after the last inliner bypasses the chain" true
        (Pipeline.context_free_suffix devirt_late_plan = None);
      QCheck.Test.check_exn ~rand:(Random.State.make [| 11 |]) prop;
      Alcotest.(check bool) "the memo served whole nodes" true (!served > 0);
      Alcotest.(check bool) "entries were added" true (Trajcache.memo_entries () > 0))

(* Two programs whose main methods are equal, with one class whose slot 0
   names a different method: constant propagation after the inliner
   devirtualizes the one virtual call to a different target in each, so
   the memo must key on the program. *)
let virt_program ~second =
  let b = Builder.create "trajcache_virt" in
  let main = Builder.declare b ~name:"main" ~nargs:0 in
  let f = Builder.declare b ~name:"f" ~nargs:1 in
  let g = Builder.declare b ~name:"g" ~nargs:1 in
  Builder.define b f (fun mb -> Builder.ret mb (Builder.const mb 1));
  Builder.define b g (fun mb -> Builder.ret mb (Builder.const mb 2));
  let k = Builder.new_class b ~name:"A" ~vtable:[| (if second then g else f) |] in
  Builder.define b main (fun mb ->
      let r = Builder.call_virt mb ~slot:0 (Builder.alloc mb k ~slots:0) [] in
      Builder.print mb r;
      Builder.ret mb r);
  Builder.set_main b main;
  Builder.finish b

let test_memo_keys_on_program () =
  let plan =
    match Plan.of_string "inltune-plan v1\npass inline on\npass constprop on\npass cleanup on\n" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let cfg = Machine.config ~plan Machine.Adapt Heuristic.default in
  let decider = Decider.Heuristic Heuristic.default in
  let a = virt_program ~second:false and b = virt_program ~second:true in
  with_clean_caches (fun () ->
      let edge prog = Trajcache.node_edge cfg Platform.x86 ~decider prog [| prog.Ir.main; 0 |] in
      let fresh prog =
        let facts = Facts.of_program prog in
        Trajcache.output_digest
          (Pipeline.run prog
             (Machine.pipeline_config cfg Platform.x86 facts decider
                (Machine.node_view facts [| prog.Ir.main; 0 |]))
             prog.Ir.methods.(prog.Ir.main))
      in
      Alcotest.(check bool) "equal mains" true (a.Ir.methods.(a.Ir.main) = b.Ir.methods.(b.Ir.main));
      Alcotest.(check bool) "different outputs" false (fresh a = fresh b);
      Alcotest.(check bool) "first program" true (edge a = fresh a);
      Alcotest.(check bool) "second program" true (edge b = fresh b))

let test_clear_empties_memo () =
  with_clean_caches (fun () ->
      ignore
        (Measure.run ~scenario:Machine.Adapt ~platform:Platform.x86
           ~plan:(snd (random_plan_genome (Rng.create 3)))
           ~heuristic:Heuristic.default (corpus "corpus_chain16")
          : Measure.times);
      ignore
        (Measure.run ~scenario:Machine.Adapt ~platform:Platform.x86 ~heuristic:Heuristic.default
           (corpus "corpus_chain16")
          : Measure.times);
      Alcotest.(check bool) "entries held" true (Trajcache.memo_entries () > 0);
      Fitcache.clear ();
      Alcotest.(check int) "no entries after clear" 0 (Trajcache.memo_entries ()))

(* Past its cap the memo takes no entry: a node it cannot serve still
   gets the edge of a fresh pipeline, and answers already held still
   serve. *)
let test_full_memo () =
  with_clean_caches (fun () ->
      let cells = Lazy.force recorded_cells in
      let rng = Rng.create 17 in
      let check () =
        let prog, scenario, platform, nodes = cells.(Rng.int rng (Array.length cells)) in
        let node = nodes.(Rng.int rng (Array.length nodes)) in
        let decider = random_decider rng prog in
        let plan = fst (random_plan_pair rng) in
        let cfg = Machine.config ~plan scenario Heuristic.default in
        let facts = Facts.of_program prog in
        let fresh =
          Trajcache.output_digest
            (Pipeline.run prog
               (Machine.pipeline_config cfg platform facts decider (Machine.node_view facts node))
               prog.Ir.methods.(node.(0)))
        in
        if Trajcache.node_edge cfg platform ~decider prog node <> fresh then
          Alcotest.failf "%s at method %d of %s: edge differs from a fresh pipeline"
            (Plan.to_string plan) node.(0) prog.Ir.pname
      in
      let tries = ref 0 in
      while Trajcache.memo_entries () < Trajcache.memo_cap && !tries < 20_000 do
        incr tries;
        check ()
      done;
      Alcotest.(check int) "the memo filled" Trajcache.memo_cap (Trajcache.memo_entries ());
      Alcotest.(check bool) "at most 48 bytes an entry, index included" true
        (Trajcache.memo_bytes () <= 48 * Trajcache.memo_cap);
      let h0, m0 = chain_counts () in
      for _ = 1 to 300 do
        check ()
      done;
      let h1, m1 = chain_counts () in
      Alcotest.(check int) "no entry past the cap" Trajcache.memo_cap (Trajcache.memo_entries ());
      Alcotest.(check bool) "misses past the cap" true (m1 > m0);
      Alcotest.(check bool) "hits past the cap" true (h1 > h0))

let suite =
  [
    ("trie answer = fresh simulation", `Slow, test_trie_equals_fresh);
    ("two plans share one trajectory", `Quick, test_two_plans_share_trajectory);
    ("fitcache clear empties the trie", `Quick, test_clear_empties_trie);
    ("profiled, reference and cache off bypass it", `Quick, test_bypassed);
    ("a miss runs no pipeline twice", `Quick, test_miss_runs_no_pipeline_twice);
    ("digest covers the output", `Quick, test_digest_covers_output);
    ("reach and strict view", `Quick, test_reach_and_strict_view);
    ("chained edge = fresh pipeline", `Slow, test_chained_edge_equals_fresh);
    ("memo keys on the program", `Quick, test_memo_keys_on_program);
    ("fitcache clear empties the memo", `Quick, test_clear_empties_memo);
    ("a full memo stops growing", `Slow, test_full_memo);
  ]
