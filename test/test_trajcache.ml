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
   unrecorded edge fails the case.  Resident bytes never exceed
   [budget].  Returns the walks, the hits and the hits by a plan no
   earlier query on that trie used. *)
let check_trie_answers ~count ~budget =
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
      QCheck.Test.fail_reportf "%s on %s (%s): answer differs from a fresh simulation" q.label trie
        (if hit then "hit" else "miss");
    if Trajcache.bytes () > budget then
      QCheck.Test.fail_reportf "%d bytes resident over a budget of %d" (Trajcache.bytes ()) budget;
    true
  in
  let prop =
    QCheck.Test.make ~count ~name:"trajectory cache answer = fresh simulation"
      (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
      (fun seed ->
        let rng = Rng.create seed in
        let cell = cells.(Rng.int rng (Array.length cells)) in
        List.for_all (fun _ -> answer_matches cell (random_query rng)) [ 1; 2; 3 ])
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |]) prop;
  (!walks, !hits, !cross_plan)

let test_trie_equals_fresh () =
  with_clean_caches (fun () ->
      let walks, hits, cross_plan =
        check_trie_answers ~count:150 ~budget:Trajcache.budget_bytes
      in
      Alcotest.(check bool) "queries walked the trie" true (walks > 0);
      Alcotest.(check bool) "some answers were trie hits" true (hits > 0);
      Alcotest.(check bool) "some hits came from another plan's simulation" true (cross_plan > 0))

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

(* One method holding every instruction constructor and every
   terminator, each operand distinct. *)
let digest_subject =
  {
    Ir.mid = 3;
    mname = "subject";
    nargs = 2;
    nregs = 9;
    blocks =
      [|
        {
          Ir.instrs =
            [|
              Ir.Const (2, -17);
              Move (3, 0);
              Binop (Ir.Sub, 4, 2, 3);
              Cmp (Ir.Le, 5, 4, 1);
              Load (6, 0, 2);
              Store (0, 3, 6);
              LoadIdx (7, 0, 1);
              StoreIdx (0, 1, 7);
              ClassOf (8, 0);
              Alloc (8, 1, 4);
              Call (6, 2, [| 0; 1 |]);
              CallVirt (7, 1, 0, [| 1; 5 |]);
              Print 4;
            |];
          term = Branch (5, 1, 2);
        };
        { Ir.instrs = [||]; term = Jump 2 };
        { Ir.instrs = [| Ir.Print 6 |]; term = Ret 7 };
      |];
  }

(* Every method differing from [m] in one field: each scalar, each
   operand, each operator, each constructor swapped for one of the same
   operands, each array one element longer, each terminator target. *)
let single_field_variants (m : Ir.methd) =
  let bump = succ in
  let instr_variants : Ir.instr -> Ir.instr list = function
    | Const (d, v) -> [ Const (bump d, v); Const (d, bump v); Move (d, v) ]
    | Move (d, a) -> [ Move (bump d, a); Move (d, bump a); ClassOf (d, a) ]
    | Binop (op, d, a, b) ->
      [ Binop (Ir.Add, d, a, b); Binop (op, bump d, a, b); Binop (op, d, bump a, b);
        Binop (op, d, a, bump b); Cmp (Ir.Lt, d, a, b) ]
    | Cmp (op, d, a, b) ->
      [ Cmp (Ir.Ge, d, a, b); Cmp (op, bump d, a, b); Cmp (op, d, bump a, b);
        Cmp (op, d, a, bump b) ]
    | Load (d, o, off) ->
      [ Load (bump d, o, off); Load (d, bump o, off); Load (d, o, bump off); Alloc (d, o, off) ]
    | Store (o, off, v) ->
      [ Store (bump o, off, v); Store (o, bump off, v); Store (o, off, bump v) ]
    | LoadIdx (d, o, i) ->
      [ LoadIdx (bump d, o, i); LoadIdx (d, bump o, i); LoadIdx (d, o, bump i); StoreIdx (d, o, i) ]
    | StoreIdx (o, i, v) ->
      [ StoreIdx (bump o, i, v); StoreIdx (o, bump i, v); StoreIdx (o, i, bump v) ]
    | ClassOf (d, o) -> [ ClassOf (bump d, o); ClassOf (d, bump o) ]
    | Alloc (d, k, n) -> [ Alloc (bump d, k, n); Alloc (d, bump k, n); Alloc (d, k, bump n) ]
    | Call (d, c, args) ->
      [ Call (bump d, c, args); Call (d, bump c, args); Call (d, c, Array.map bump args);
        Call (d, c, Array.append args [| 0 |]) ]
    | CallVirt (d, slot, r, args) ->
      [ CallVirt (bump d, slot, r, args); CallVirt (d, bump slot, r, args);
        CallVirt (d, slot, bump r, args); CallVirt (d, slot, r, Array.map bump args);
        CallVirt (d, slot, r, Array.append args [| 0 |]); Call (d, slot, args) ]
    | Print r -> [ Print (bump r) ]
  in
  let term_variants : Ir.terminator -> Ir.terminator list = function
    | Jump t -> [ Jump (bump t); Ret t ]
    | Branch (r, t, e) -> [ Branch (bump r, t, e); Branch (r, bump t, e); Branch (r, t, bump e) ]
    | Ret r -> [ Ret (bump r); Jump r ]
  in
  let with_block bi f =
    { m with Ir.blocks = Array.mapi (fun j b -> if j = bi then f b else b) m.Ir.blocks }
  in
  let with_term bi t = with_block bi (fun b -> { b with Ir.term = t }) in
  let with_instrs bi f = with_block bi (fun b -> { b with Ir.instrs = f b.Ir.instrs }) in
  [ { m with Ir.mid = bump m.Ir.mid }; { m with Ir.mname = m.Ir.mname ^ "_" };
    { m with Ir.nargs = bump m.Ir.nargs }; { m with Ir.nregs = bump m.Ir.nregs };
    { m with Ir.blocks = Array.append m.Ir.blocks [| { Ir.instrs = [||]; term = Ret 0 } |] } ]
  @ List.concat
      (List.mapi
         (fun bi (b : Ir.block) ->
           List.map (with_term bi) (term_variants b.Ir.term)
           @ [ with_instrs bi (fun is -> Array.append is [| Ir.Print 0 |]) ]
           @ List.concat
               (List.mapi
                  (fun ii ins ->
                    List.map
                      (fun ins' ->
                        with_instrs bi (Array.mapi (fun j x -> if j = ii then ins' else x)))
                      (instr_variants ins))
                  (Array.to_list b.Ir.instrs)))
         (Array.to_list m.Ir.blocks))

(* The edge digest covers the output's method, size_peak and size_after:
   every field of the method, each operand, operator and constructor of
   every instruction and terminator, and where the blocks split. *)
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
  Alcotest.(check bool) "method" false (d out = d ({ code with Ir.nregs = code.Ir.nregs + 1 }, stats));
  let dm m = d (m, stats) in
  let d0 = dm digest_subject in
  Alcotest.(check bool) "a structural copy digests equal" true
    (d0 = dm (Marshal.from_string (Marshal.to_string digest_subject []) 0));
  List.iteri
    (fun i v ->
      if v = digest_subject then Alcotest.failf "variant %d is the subject" i;
      if dm v = d0 then Alcotest.failf "variant %d digests equal" i)
    (single_field_variants digest_subject);
  (* A byte encoding without instruction counts would confuse these two:
     the constructor byte of [Const] can equal the one of [Jump]. *)
  let two_blocks first second =
    {
      digest_subject with
      Ir.blocks = [| { Ir.instrs = first; term = Jump 0 }; { Ir.instrs = second; term = Jump 1 } |];
    }
  in
  Alcotest.(check bool) "an instruction moved across a block boundary" false
    (dm (two_blocks [||] [| Ir.Const (0, 0) |]) = dm (two_blocks [| Ir.Const (0, 0) |] [||]))

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
  let edge = Machine.Packed_edge.pack ~key:((mid "caller" * n) + mid "impl_a") ~count:7 in
  let view = Machine.node_view facts [| mid "caller"; 10; Option.get edge |] in
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
                      ~record:(fun r -> nodes := Option.get r.Machine.node :: !nodes)
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

(* At its cap the memo empties itself and fills again: every edge, before
   and after it starts over, is the edge of a fresh pipeline, it never
   holds more than its cap, and entries added after the reset serve later
   nodes. *)
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
      let added0 = metric "fitness.traj_memo_entries" in
      let at_reset = ref None and last = ref 0 and tries = ref 0 in
      let step () =
        check ();
        let now = Trajcache.memo_entries () in
        if now > Trajcache.memo_cap then Alcotest.failf "%d entries past the cap" now;
        if now < !last && !at_reset = None then begin
          Alcotest.(check bool) "it started over once full" true
            (metric "fitness.traj_memo_entries" - added0 > Trajcache.memo_cap);
          at_reset := Some (chain_counts ())
        end;
        last := now
      in
      while !at_reset = None && !tries < 20_000 do
        incr tries;
        step ()
      done;
      for _ = 1 to 300 do
        step ()
      done;
      Alcotest.(check bool) "at most 48 bytes an entry, index included" true
        (Trajcache.memo_bytes () - Trajcache.engine_bytes () <= 48 * Trajcache.memo_cap);
      match !at_reset with
      | None -> Alcotest.fail "the memo never started over"
      | Some (h0, m0) ->
        let h1, m1 = chain_counts () in
        Alcotest.(check bool) "misses after the reset" true (m1 > m0);
        Alcotest.(check bool) "hits from entries added after the reset" true (h1 > h0))

(* --- eviction ----------------------------------------------------------- *)

(* The property above, with a budget a few SPEC paths fill: roots are
   evicted every few inserts, and every answer still equals a fresh
   simulation. *)
let test_trie_equals_fresh_evicting () =
  with_clean_caches (fun () ->
      let budget = 16 * 1024 in
      let e0 = metric "fitness.traj_evictions" in
      let walks, _, _ =
        Trajcache.with_budget budget (fun () -> check_trie_answers ~count:60 ~budget)
      in
      Alcotest.(check bool) "queries walked the trie" true (walks > 0);
      Alcotest.(check bool) "roots were evicted" true (metric "fitness.traj_evictions" > e0))

(* Queries straight through [Trajcache], as [Measure.run_decider] makes
   them, on Adapt x86 with the default heuristic. *)
let adapt_cfg = Machine.config Machine.Adapt Heuristic.default
let no_inline_cfg =
  Machine.config ~plan:(Plan.disable "inline" Plan.default) Machine.Adapt Heuristic.default
let default_decider = Decider.Heuristic Heuristic.default

let traj_find ?(cfg = adapt_cfg) prog =
  Trajcache.find cfg Platform.x86 ~iterations:3 ~decider:default_decider prog

let simulate_miss ?(cfg = adapt_cfg) prog miss =
  let recorded = ref [] in
  let m =
    Runner.measure ~iterations:3 ~precomputed:(Trajcache.outputs miss)
      ~record:(fun r -> recorded := r :: !recorded)
      cfg Platform.x86 prog
  in
  (m, List.rev !recorded)

(* The answer to a query, inserting its path on a miss. *)
let traj_answer ?cfg prog =
  match traj_find ?cfg prog with
  | Trajcache.Hit m -> m
  | Trajcache.Miss miss ->
    let m, recorded = simulate_miss ?cfg prog miss in
    Trajcache.insert miss recorded m;
    m

let expect_hit what = function
  | Trajcache.Hit _ -> ()
  | Trajcache.Miss _ -> Alcotest.failf "%s: a miss" what

(* A miss on a trie with no root: the walk passed no node. *)
let expect_rootless what = function
  | Trajcache.Miss miss when Trajcache.outputs miss = [] -> ()
  | Trajcache.Miss _ -> Alcotest.failf "%s: a miss below a root" what
  | Trajcache.Hit _ -> Alcotest.failf "%s: a hit" what

(* A miss below a stored root. *)
let walked_miss what = function
  | Trajcache.Miss miss when Trajcache.outputs miss <> [] -> miss
  | Trajcache.Miss _ -> Alcotest.failf "%s: no root" what
  | Trajcache.Hit _ -> Alcotest.failf "%s: a hit" what

(* Eviction takes the least recently walked root, never the one an insert
   grows; a miss whose root was evicted stores nothing, even once its
   program has a root again; resident bytes stay within the budget; and
   [Fitcache.clear] still empties everything. *)
let test_eviction_order () =
  let pa = W.Suites.program (W.Suites.find "compress")
  and pb = W.Suites.program (W.Suites.find "db")
  and pc = W.Suites.program (W.Suites.find "jess") in
  let evictions () = metric "fitness.traj_evictions" in
  let within what budget =
    if Trajcache.bytes () > budget then
      Alcotest.failf "%s: %d bytes over a budget of %d" what (Trajcache.bytes ()) budget
  in
  with_clean_caches (fun () ->
      (* Sizes at the fixed budget: each root alone, and the inline-free
         path below compress's root. *)
      let root_size prog =
        Fitcache.clear ();
        ignore (traj_answer prog : Runner.measurement);
        Trajcache.bytes ()
      in
      let a = root_size pa and b = root_size pb and c = root_size pc in
      let below_a =
        Fitcache.clear ();
        ignore (traj_answer pa : Runner.measurement);
        ignore (traj_answer ~cfg:no_inline_cfg pa : Runner.measurement);
        Trajcache.bytes () - a
      in
      Alcotest.(check bool) "the second path hangs below the root" true (below_a > 0);
      (* Two roots, compress walked last: a third root evicts db alone. *)
      Fitcache.clear ();
      let budget = a + b + c - 1 in
      Trajcache.with_budget budget (fun () ->
          ignore (traj_answer pa : Runner.measurement);
          ignore (traj_answer pb : Runner.measurement);
          expect_hit "compress before the eviction" (traj_find pa);
          let e0 = evictions () in
          ignore (traj_answer pc : Runner.measurement);
          within "after the third root" budget;
          Alcotest.(check int) "one root evicted" (e0 + 1) (evictions ());
          expect_hit "compress, walked last, is kept" (traj_find pa);
          expect_hit "the new root is stored" (traj_find pc);
          expect_rootless "db, walked first, is evicted" (traj_find pb));
      (* A miss below compress's root, taken before every root is evicted
         and compress planted again, stores nothing; the same query then
         misses again and simulates to the fresh value. *)
      let miss = walked_miss "the inline-free query" (traj_find ~cfg:no_inline_cfg pa) in
      let m, recorded = simulate_miss ~cfg:no_inline_cfg pa miss in
      let e0 = evictions () in
      Trajcache.with_budget 0 ignore;
      Alcotest.(check bool) "every root evicted" true (evictions () > e0);
      Alcotest.(check int) "nothing resident" 0 (Trajcache.bytes ());
      ignore (traj_answer pa : Runner.measurement);
      let n0 = Trajcache.nodes () and b0 = Trajcache.bytes () in
      Trajcache.insert miss recorded m;
      Alcotest.(check int) "the stale miss added no node" n0 (Trajcache.nodes ());
      Alcotest.(check int) "nor any byte" b0 (Trajcache.bytes ());
      let again = walked_miss "the same query again" (traj_find ~cfg:no_inline_cfg pa) in
      let m', _ = simulate_miss ~cfg:no_inline_cfg pa again in
      Alcotest.(check bool) "= a fresh simulation" true
        (m' = Runner.measure ~iterations:3 no_inline_cfg Platform.x86 pa);
      (* The root an insert grows is not evicted even when it is the least
         recently walked: db goes instead. *)
      Fitcache.clear ();
      let budget = a + b + below_a - 1 in
      Trajcache.with_budget budget (fun () ->
          ignore (traj_answer pa : Runner.measurement);
          let miss = walked_miss "below compress" (traj_find ~cfg:no_inline_cfg pa) in
          let m, recorded = simulate_miss ~cfg:no_inline_cfg pa miss in
          ignore (traj_answer pb : Runner.measurement);
          let e0 = evictions () in
          Trajcache.insert miss recorded m;
          within "after growing compress" budget;
          Alcotest.(check int) "one root evicted" (e0 + 1) (evictions ());
          expect_hit "the grown path is stored" (traj_find ~cfg:no_inline_cfg pa);
          expect_rootless "db is evicted" (traj_find pb));
      Fitcache.clear ();
      Alcotest.(check int) "no nodes after clear" 0 (Trajcache.nodes ());
      Alcotest.(check int) "no bytes after clear" 0 (Trajcache.bytes ());
      Alcotest.(check int) "no memo entries after clear" 0 (Trajcache.memo_entries ()))

(* --- packed edges --------------------------------------------------------- *)

(* One int holds a key and a count each below 2^31, and nothing out of
   that range packs.  A simulation whose edges cannot be packed still
   answers with its measurement, and stores nothing. *)
let test_packed_range () =
  let pack = Machine.Packed_edge.pack in
  let top = (1 lsl 31) - 1 in
  List.iter
    (fun (key, count) ->
      match pack ~key ~count with
      | None -> Alcotest.failf "(%d, %d) did not pack" key count
      | Some p ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "(%d, %d) round-trips" key count)
          (key, count)
          (Machine.Packed_edge.key p, Machine.Packed_edge.count p))
    [ (0, 0); (0, top); (top, 0); (top, top); (152_098, 11_520); (1, 1 lsl 30) ];
  List.iter
    (fun (key, count) ->
      if pack ~key ~count <> None then Alcotest.failf "(%d, %d) packed" key count)
    [ (0, 1 lsl 31); (1 lsl 31, 0); (-1, 0); (0, -1); (max_int, 1) ];
  let packed key = Option.get (pack ~key ~count:top) in
  Alcotest.(check bool) "packed order is key order" true (packed 5 < packed 6);
  let bm = bench_of_program dispatch_program in
  let prog = W.Suites.program bm in
  with_clean_caches (fun () ->
      let unrecordable = ref 0 in
      Machine.Packed_edge.with_limit 100 (fun () ->
          ignore
            (Runner.measure ~iterations:3
               ~record:(fun r -> if r.Machine.node = None then incr unrecordable)
               adapt_cfg Platform.x86 prog
              : Runner.measurement);
          Alcotest.(check bool) "a recompile was unrecordable" true (!unrecordable > 0);
          let s0 = metric "measure.simulations" in
          let got =
            (Measure.run_decider ~scenario:Machine.Adapt ~platform:Platform.x86
               ~decider:(Fitcache.Heuristic Heuristic.default) bm)
              .Measure.raw
          in
          Alcotest.(check int) "it simulated" (s0 + 1) (metric "measure.simulations");
          Alcotest.(check bool) "= a fresh simulation" true
            (got = Runner.measure ~iterations:3 adapt_cfg Platform.x86 prog);
          Alcotest.(check int) "the trie is unchanged" 0 (Trajcache.bytes ()));
      ignore (traj_answer prog : Runner.measurement);
      Alcotest.(check bool) "in range, the path is stored" true (Trajcache.nodes () > 0))

(* --- the inliner memo --------------------------------------------------------- *)

let engine_counts () = (metric "fitness.traj_engine_hits", metric "fitness.traj_engine_misses")

(* The edge of a whole [Pipeline.run] at a recorded [node]. *)
let fresh_edge cfg platform decider prog node =
  let facts = Facts.of_program prog in
  Trajcache.output_digest
    (Pipeline.run prog
       (Machine.pipeline_config cfg platform facts decider (Machine.node_view facts node))
       prog.Ir.methods.(node.(0)))

(* A heuristic with another HOT_CALLEE_MAX_SIZE: the same Fig. 3 verdicts,
   other Fig. 4 ones.  Other deciders are kept. *)
let other_hot rng = function
  | Decider.Heuristic h ->
    let lo, hi = Heuristic.ranges.(4) in
    Decider.Heuristic { h with Heuristic.hot_callee_max_size = Rng.range rng lo hi }
  | d -> d

(* [node_edge] twice for one query at a recorded node: both edges equal a
   fresh pipeline's, and the second derives the whole front from the
   inliner memo (the first added what it missed), unless the memo started
   over in between.  [what] names the query in failures. *)
let check_derives ~what (prog, scenario, platform, _) node plan decider =
  let cfg = Machine.config ~plan scenario Heuristic.default in
  let fresh = fresh_edge cfg platform decider prog node in
  let a0 = metric "fitness.traj_engine_entries" and c0 = Trajcache.engine_entries () in
  let first = Trajcache.node_edge cfg platform ~decider prog node in
  let started_over =
    Trajcache.engine_entries () - c0 <> metric "fitness.traj_engine_entries" - a0
  in
  let h0, m0 = engine_counts () in
  let second = Trajcache.node_edge cfg platform ~decider prog node in
  let h1, m1 = engine_counts () in
  let where =
    Printf.sprintf "%s at method %d of %s under\n%s" what node.(0) prog.Ir.pname
      (Plan.to_string plan)
  in
  if first <> fresh then
    QCheck.Test.fail_reportf "%s: the filling walk's edge differs from a fresh pipeline" where;
  if second <> fresh then
    QCheck.Test.fail_reportf "%s: the derived edge differs from a fresh pipeline" where;
  if (not started_over) && (h1 <> h0 + 1 || m1 <> m0) then
    QCheck.Test.fail_reportf "%s: the second walk did not derive its front" where;
  true

(* Two plan genomes with the inline and region items on that differ only
   in a small region budget, by at most 64: where the inline item grew the
   method, a region policy built from the wrong root size would decide
   both alike. *)
let region_pair rng =
  let g = Array.map (fun (lo, hi) -> Rng.range rng lo hi) Plan.tunable_ranges in
  g.(1) <- 1;
  g.(15) <- 1;
  g.(16) <- Rng.range rng 16 512;
  let g' = Array.copy g in
  g'.(16) <- g.(16) + Rng.range rng 1 64;
  (Plan.of_genes g, Plan.of_genes g')

(* At nodes recorded from real Adapt and Ladder runs, for random plan
   genomes, heuristics and GP trees, a derived edge equals a fresh
   pipeline's.  The memo stays warm across cases, and each case puts five
   queries to one node — two plans that differ only before the last
   inliner, the first plan again under a heuristic whose Fig. 4 verdicts
   differ, and a [region_pair] — so one query's entries are there for the
   others to misuse. *)
let test_derived_edge_equals_fresh () =
  with_clean_caches (fun () ->
      let cells = Lazy.force recorded_cells in
      let prop =
        QCheck.Test.make ~count:150 ~name:"derived edge = fresh pipeline"
          (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
          (fun seed ->
            let rng = Rng.create seed in
            let ((prog, _, _, nodes) as cell) = cells.(Rng.int rng (Array.length cells)) in
            let node = nodes.(Rng.int rng (Array.length nodes)) in
            let decider = random_decider rng prog in
            let a, b = random_plan_pair rng in
            let region, region' = region_pair rng in
            check_derives ~what:"plan a" cell node a decider
            && check_derives ~what:"plan b" cell node b decider
            && check_derives ~what:"plan a, other Fig. 4 verdicts" cell node a
                 (other_hot rng decider)
            && check_derives ~what:"region" cell node region decider
            && check_derives ~what:"region, nearby budget" cell node region' decider)
      in
      let h0, _ = engine_counts () in
      QCheck.Test.check_exn ~rand:(Random.State.make [| 13 |]) prop;
      Alcotest.(check bool) "fronts were derived" true (fst (engine_counts ()) > h0);
      Alcotest.(check bool) "entries were added" true (Trajcache.engine_entries () > 0))

(* Every method of the SPECjvm98 programs at an empty window under Adapt
   on x86: more distinct inliner inputs than the recorded cells hold. *)
let window_free_cells =
  lazy
    (Array.of_list
       (List.map
          (fun bm ->
            let prog = W.Suites.program bm in
            ( prog,
              Machine.Adapt,
              Platform.x86,
              Array.map (fun m -> [| m.Ir.mid; 0 |]) prog.Ir.methods ))
          W.Suites.spec))

(* At its cap the inliner memo empties itself and fills again: every edge,
   before and after it starts over, is a fresh pipeline's, it never holds
   more than its cap, and entries added after the reset derive later
   fronts. *)
let test_full_inliner_memo () =
  with_clean_caches (fun () ->
      let cells = Array.append (Lazy.force recorded_cells) (Lazy.force window_free_cells) in
      let rng = Rng.create 23 in
      let check () =
        let prog, scenario, platform, nodes = cells.(Rng.int rng (Array.length cells)) in
        let node = nodes.(Rng.int rng (Array.length nodes)) in
        let decider = random_decider rng prog in
        let plan = fst (random_plan_pair rng) in
        let cfg = Machine.config ~plan scenario Heuristic.default in
        let fresh = fresh_edge cfg platform decider prog node in
        if Trajcache.node_edge cfg platform ~decider prog node <> fresh then
          Alcotest.failf "%s at method %d of %s: edge differs from a fresh pipeline"
            (Plan.to_string plan) node.(0) prog.Ir.pname
      in
      let added0 = metric "fitness.traj_engine_entries" in
      let at_reset = ref None and last = ref 0 and tries = ref 0 in
      let step () =
        check ();
        let now = Trajcache.engine_entries () in
        if now > Trajcache.engine_cap then Alcotest.failf "%d entries past the cap" now;
        if now < !last && !at_reset = None then begin
          Alcotest.(check bool) "it started over once full" true
            (metric "fitness.traj_engine_entries" - added0 > Trajcache.engine_cap);
          at_reset := Some (engine_counts ())
        end;
        last := now
      in
      while !at_reset = None && !tries < 20_000 do
        incr tries;
        step ()
      done;
      for _ = 1 to 300 do
        step ()
      done;
      match !at_reset with
      | None -> Alcotest.fail "the inliner memo never started over"
      | Some (h0, m0) ->
        let h1, m1 = engine_counts () in
        Alcotest.(check bool) "misses after the reset" true (m1 > m0);
        Alcotest.(check bool) "derived fronts from entries added after the reset" true (h1 > h0))

let test_clear_empties_inliner_memo () =
  with_clean_caches (fun () ->
      let empty = Trajcache.engine_bytes () in
      List.iter
        (fun plan ->
          ignore
            (Measure.run ~scenario:Machine.Adapt ~platform:Platform.x86 ~plan
               ~heuristic:Heuristic.default (corpus "corpus_chain16")
              : Measure.times))
        [ snd (random_plan_genome (Rng.create 3)); Plan.default ];
      Alcotest.(check bool) "entries held" true (Trajcache.engine_entries () > 0);
      Alcotest.(check bool) "bytes held" true (Trajcache.engine_bytes () > empty);
      Fitcache.clear ();
      Alcotest.(check int) "no entries after clear" 0 (Trajcache.engine_entries ());
      Alcotest.(check int) "no bytes after clear" empty (Trajcache.engine_bytes ()))

(* The recorded nodes of a default Adapt run of [bm] on x86 at which
   guarded devirtualization rewrites the method: there the method
   entering the inliners is not the constprop'd original. *)
let devirt_nodes bm =
  let prog = W.Suites.program bm in
  let facts = Facts.of_program prog in
  let nodes = ref [] in
  ignore
    (Runner.measure ~iterations:3
       ~record:(fun r -> nodes := Option.get r.Machine.node :: !nodes)
       adapt_cfg Platform.x86 prog
      : Runner.measurement);
  let first = fst (Option.get (Pipeline.inliner_span Plan.default)) in
  List.filter
    (fun node ->
      let config =
        Machine.pipeline_config adapt_cfg Platform.x86 facts default_decider
          (Machine.node_view facts node)
      in
      let p0 = Pipeline.run_until (Pipeline.start prog config prog.Ir.methods.(node.(0))) first in
      Pipeline.current p0 != fst (Pass.constprop_original facts node.(0)))
    (List.rev !nodes)

(* Where guarded devirtualization rewrote a suite method (under Adapt on
   x86 with the default heuristic it rewrites one recompile's method in
   each of these two DaCapo programs, and none in SPECjvm98), a walk
   describes the method entering the inliners itself and still derives the
   front on its next visit.  The node is first walked without
   devirtualization, so the memo holds an entry for the constprop'd
   original under the same decider: a walk that took the original's
   description there would find that entry and answer with the unguarded
   output. *)
let test_derived_after_devirt () =
  with_clean_caches (fun () ->
      let no_devirt = Plan.disable "guarded_devirt" Plan.default in
      let rewritten =
        List.concat_map
          (fun name ->
            let bm = W.Suites.find name in
            let prog = W.Suites.program bm in
            List.map
              (fun node ->
                let cell = (prog, Machine.Adapt, Platform.x86, [| node |]) in
                ignore
                  (check_derives ~what:"without devirtualization" cell node no_devirt
                     default_decider
                    : bool);
                ignore
                  (check_derives ~what:"with devirtualization" cell node Plan.default
                     default_decider
                    : bool))
              (devirt_nodes bm))
          [ "ipsixql"; "pseudojbb" ]
      in
      Alcotest.(check bool) "devirtualization rewrote some recompile's method" true
        (rewritten <> []))

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
    ("a full memo starts over", `Slow, test_full_memo);
    ("trie answer = fresh, evicting", `Slow, test_trie_equals_fresh_evicting);
    ("eviction order and in-flight misses", `Quick, test_eviction_order);
    ("packed edges and the range check", `Quick, test_packed_range);
    ("derived edge = fresh pipeline", `Slow, test_derived_edge_equals_fresh);
    ("a full inliner memo starts over", `Slow, test_full_inliner_memo);
    ("fitcache clear empties the inliner memo", `Quick, test_clear_empties_inliner_memo);
    ("derived front after guarded devirtualization", `Quick, test_derived_after_devirt);
  ]
