open Inltune_jir
open Inltune_opt
open Inltune_vm
open Inltune_core
module W = Inltune_workloads
module Rng = Inltune_support.Rng
module Vec = Inltune_support.Vec
module Gp = Inltune_gp
module Features = Inltune_policy.Features

(* Equivalence of the optimizer's fast paths with what they stand for:
   - the decision walk over call-site tables ({!Engine.walk_from}) against
     the accept bits of the transformation's own decision log
     ({!Engine.run}), hot sites and derived roots included, and the
     transformation against a replay of those bits;
   - fitness-cache and compile-cache keys against constants recorded before
     the walk moved onto tables, so on-disk [--fitness-cache] files stay
     valid, and policy keys against constants recorded before every decider
     took one signature function;
   - policy measurements through the fitness and compile caches against
     cache-free simulations;
   - live-in-sparse constant propagation against the dense formulation
     ([Constprop_dense]) at every pipeline stage. *)

let programs = Array.of_list (W.Suites.all @ W.Corpus.all)

(* A program by index: the suite and corpus programs first, then random
   ones ([Gen_random]) seeded by the index. *)
let nprograms = Array.length programs + 40

let program_at i =
  if i < Array.length programs then W.Suites.program programs.(i) else Gen_random.program i

let random_heuristic rng =
  Heuristic.of_array (Array.map (fun (lo, hi) -> Rng.range rng lo hi) Heuristic.ranges)

(* --- the table walk -------------------------------------------------------- *)

(* The transformation's verdicts on [m]: accept bits of its decision log,
   recursion-guarded entries (decided by no policy) skipped. *)
let run_bits ?hot_site ~program ~policy m =
  let log = Vec.create () in
  ignore (Engine.run ?hot_site ~decisions:log ~program ~policy m);
  let buf = Buffer.create 16 in
  Array.iter
    (fun d ->
      match d.Engine.d_reason with
      | Engine.Recursive -> ()
      | _ -> Buffer.add_char buf (if Engine.decision_accepts d then '1' else '0'))
    (Vec.to_array log);
  Buffer.contents buf

(* A per-root policy: the paper's heuristic, a small-leaf or region
   strategy with random knobs, a random GP tree, or a hash of every site
   field (so a walk that got any of them wrong would disagree). *)
let random_policy rng program =
  match Rng.int rng 5 with
  | 0 ->
    let p = Policy.of_heuristic (random_heuristic rng) in
    fun _ -> p
  | 1 ->
    let p =
      Leaves.policy ~leaf_size:(Rng.range rng 1 60) ~rounds:(Rng.range rng 1 4)
        (Facts.of_program program)
    in
    fun _ -> p
  | 2 ->
    let budget = Rng.range rng 0 1024 and depth = Rng.range rng 1 8 in
    fun root -> Region.policy ~budget ~depth ~root_size:(Size.of_method root)
  | 3 ->
    let p = Gp.Decode.policy ~ctx:(Features.make_ctx program) (Gp.Genetic.random rng) in
    fun _ -> p
  | _ ->
    let k = Rng.range rng 1 97 in
    let p =
      Policy.of_predicate ~name:"site_hash" ~accept_rule:"hash_accept" ~reject_rule:"hash_reject"
        (fun s ->
          s.Policy.inline_depth <= 6
          && ((31 * s.Policy.owner) + (7 * s.Policy.callee) + s.Policy.callee_size
             + (3 * s.Policy.inline_depth) + s.Policy.caller_size)
             * k mod 5
             < 3)
    in
    fun _ -> p

(* A hot-site predicate: a salted hash of the site's owner and callee,
   true for about one site in [k]. *)
let random_hot rng =
  let k = Rng.range rng 2 5 and salt = Rng.int rng 1000 in
  fun ~site_owner ~callee -> ((31 * site_owner) + (7 * callee) + salt) mod k = 0

(* The strategies whose policy is built from the root's size: region, and
   hot-path over a window of hashed edge counts. *)
let random_sized_policy rng =
  let budget = Rng.range rng 0 1024 in
  if Rng.bool rng then
    let depth = Rng.range rng 1 8 in
    fun root -> Region.policy ~budget ~depth ~root_size:(Size.of_method root)
  else
    let total = Rng.range rng 1 10_000 and salt = Rng.int rng 1000 in
    let hot_permille = Rng.range rng 1 500 in
    let view =
      {
        Hotpath.edge_count =
          (fun ~site_owner ~callee ->
            ((131 * site_owner) + (17 * callee) + salt) mod 97 * total / 96);
        total_calls = (fun () -> total);
      }
    in
    fun root -> Hotpath.policy ~hot_permille ~budget view ~root_size:(Size.of_method root)

(* [Engine.walk_from]'s bits for root [m], from [m]'s own call-site table
   and size. *)
let walk_bits ~bodies ?hot_site ~policy m =
  let buf = Buffer.create 16 in
  Engine.walk_from ~bodies ~callees:(Engine.callees m) ~size:(Size.of_method m) ?hot_site ~policy
    m.Ir.mid (fun a -> Buffer.add_char buf (if a then '1' else '0'));
  Buffer.contents buf

(* Two root tables: the constprop'd methods (the fitness cache's roots)
   and the original methods.  Then over the constprop'd methods: hot sites
   under a random predicate, with the heuristic taking its Fig. 4 path and
   with the random policy; roots that are outputs of an earlier engine run
   (every root site owned by the root, the sizes the input's); and the
   region and hot-path policies built from such a root's size. *)
let prop_walk_matches_run =
  QCheck.Test.make ~count:100 ~name:"table walk = Engine.run decisions"
    QCheck.(pair (int_bound (nprograms - 1)) (int_bound 100_000))
    (fun (pi, seed) ->
      let program = program_at pi in
      let rng = Rng.create seed in
      let policy_of = random_policy rng program in
      let bodies = Engine.call_sites program.Ir.methods in
      let cp = Array.map (fun m -> fst (Constprop.run program m)) program.Ir.methods in
      let hot_site = random_hot rng in
      let heuristic = Policy.of_heuristic (random_heuristic rng) in
      let earlier = random_policy rng program in
      let sized = random_sized_policy rng in
      let same ?hot_site policy m =
        walk_bits ~bodies ?hot_site ~policy m = run_bits ?hot_site ~program ~policy m
      in
      List.for_all
        (fun roots_methods ->
          let roots = Engine.call_sites roots_methods in
          Array.for_all
            (fun m ->
              let policy = policy_of m in
              Engine.walk ~bodies ~roots ~policy m.Ir.mid = run_bits ~program ~policy m)
            roots_methods)
        [ cp; program.Ir.methods ]
      && Array.for_all
           (fun m ->
             let derived = fst (Engine.run ~program ~policy:(earlier m) m) in
             same ~hot_site heuristic m
             && same ~hot_site (policy_of m) m
             && same (policy_of derived) derived
             && same ~hot_site heuristic derived
             && same (sized derived) derived
             && same (sized m) m)
           cp)

(* --- golden keys ----------------------------------------------------------- *)

(* [Fitcache.key] and a digest of [Fitcache.code_keys] (x86, Opt, default
   plan, 3 iterations), recorded before the walk moved onto call-site
   tables. *)
let golden =
  [
    ( "compress", "default",
      "fed7dad7f172acddcf20e604610f6a4f/opt/x86/default/3/w:dedaf6df8f2a500554d6db2c149ae20b",
      "274ee92f69ca994c84808bbf88e0e213" );
    ( "compress", "aggressive",
      "fed7dad7f172acddcf20e604610f6a4f/opt/x86/default/3/w:aa56215adb83a2ae8db4a7487b9e995e",
      "6bc295ddd12531f784b0b4cd4b431257" );
    ( "compress", "conservative",
      "fed7dad7f172acddcf20e604610f6a4f/opt/x86/default/3/w:fd43fa33b90e4ac1302a3147dc41a4df",
      "45e3a721ae341ebb8c7f6cfc41d8e58e" );
    ( "compress", "middle",
      "fed7dad7f172acddcf20e604610f6a4f/opt/x86/default/3/w:6c30be9c19f6f6f507f44a35f8667228",
      "a19d929a15b45acdcc15c5eef630b9b5" );
    ( "jess", "default",
      "2426e4e0926fa58e287aeaeb2627bdda/opt/x86/default/3/w:3cf35050d3618dc6f9406390c455bb55",
      "27dbb4ed428225c9dd74e2fa8e6360aa" );
    ( "jess", "aggressive",
      "2426e4e0926fa58e287aeaeb2627bdda/opt/x86/default/3/w:83111e1f78e4e4803815964999113a89",
      "4e34d9b9a4114deddddea73ad2fa4d72" );
    ( "jess", "conservative",
      "2426e4e0926fa58e287aeaeb2627bdda/opt/x86/default/3/w:f182393e2d468645637c371c8c5bae97",
      "228cfe1071daa293a8bca5c7fd0b4ffb" );
    ( "jess", "middle",
      "2426e4e0926fa58e287aeaeb2627bdda/opt/x86/default/3/w:2cf56fb984eab983602897043944a3c2",
      "1e750c53155582dbb916f5bb7b75c106" );
    ( "db", "default",
      "294aea08dc8f9ef70b869800d6ab0011/opt/x86/default/3/w:00d8a740a6592da1124827bb3a7f8527",
      "36d2892303c4acdc51b345506e718719" );
    ( "db", "aggressive",
      "294aea08dc8f9ef70b869800d6ab0011/opt/x86/default/3/w:d3981ee4bb5fddb97733a7717b10f2bd",
      "ac12006a477b5aa693d31ef8dc91a282" );
    ( "db", "conservative",
      "294aea08dc8f9ef70b869800d6ab0011/opt/x86/default/3/w:05f6261d0aa034bfa1627b674238738b",
      "d01a33d48621ad056cc3c7f366e4aa76" );
    ( "db", "middle",
      "294aea08dc8f9ef70b869800d6ab0011/opt/x86/default/3/w:19c7c98a86dc8f9ed2d54837291204eb",
      "725d3d40aac1116e839c45fa56565da1" );
    ( "javac", "default",
      "3ff22ece553d87109496ca173ebea2b6/opt/x86/default/3/w:5ef3a8a3f236ec72026c205646fe6811",
      "6e75184a1b9e919183691a22a6d9665e" );
    ( "javac", "aggressive",
      "3ff22ece553d87109496ca173ebea2b6/opt/x86/default/3/w:fcf032fd41de7de8a73e94fda1c6b08f",
      "6f4d9006d8704dbdac34f009736703c9" );
    ( "javac", "conservative",
      "3ff22ece553d87109496ca173ebea2b6/opt/x86/default/3/w:39a866b4c4943ab398c8b4c26834f92b",
      "6ca47e7e28534fb5eb492d8b9014f9dc" );
    ( "javac", "middle",
      "3ff22ece553d87109496ca173ebea2b6/opt/x86/default/3/w:fcf032fd41de7de8a73e94fda1c6b08f",
      "6f4d9006d8704dbdac34f009736703c9" );
    ( "mpegaudio", "default",
      "7a04dec46f7f0971e83b810fc77fa4c4/opt/x86/default/3/w:b2bdff34771fec67ece6a00317acf91c",
      "47133a8a07e00c9a17345fd438d920a5" );
    ( "mpegaudio", "aggressive",
      "7a04dec46f7f0971e83b810fc77fa4c4/opt/x86/default/3/w:e2020158c38d21a4e19f2b353782ea7f",
      "3a202bf3be014e482cac5cc093683e58" );
    ( "mpegaudio", "conservative",
      "7a04dec46f7f0971e83b810fc77fa4c4/opt/x86/default/3/w:1de9b7f77a475f85256782341dbb27ca",
      "30e41a79dc1c673061135800705d0f16" );
    ( "mpegaudio", "middle",
      "7a04dec46f7f0971e83b810fc77fa4c4/opt/x86/default/3/w:e2020158c38d21a4e19f2b353782ea7f",
      "3a202bf3be014e482cac5cc093683e58" );
    ( "raytrace", "default",
      "44e6aef1405accd7a3ba44dab14aba4c/opt/x86/default/3/w:32f5df6ffe169f0a02fa986ee98a3e36",
      "466edc31a34e8afee107ecbaa04ef6d4" );
    ( "raytrace", "aggressive",
      "44e6aef1405accd7a3ba44dab14aba4c/opt/x86/default/3/w:da1ae636b55e80eb41f20450f0343f0b",
      "3efcbf32a25b1f18ebdfe89c42f13e9e" );
    ( "raytrace", "conservative",
      "44e6aef1405accd7a3ba44dab14aba4c/opt/x86/default/3/w:01e740a119de7c4e96531e76a9fcfc90",
      "9152f318de409516f6f290392f6f7b1b" );
    ( "raytrace", "middle",
      "44e6aef1405accd7a3ba44dab14aba4c/opt/x86/default/3/w:32f5df6ffe169f0a02fa986ee98a3e36",
      "466edc31a34e8afee107ecbaa04ef6d4" );
    ( "jack", "default",
      "5219757f059fce21e2721e4401eb2773/opt/x86/default/3/w:8ede323830740c17f70e83f2f33e7a03",
      "9a7a06bee12260fbf82f3fdf304578ba" );
    ( "jack", "aggressive",
      "5219757f059fce21e2721e4401eb2773/opt/x86/default/3/w:81e9237ad3b98a1068eb2c81a99a42a5",
      "1d6af2efb74b494fa98361f5612be855" );
    ( "jack", "conservative",
      "5219757f059fce21e2721e4401eb2773/opt/x86/default/3/w:4ad01575f6e5dc0c307099f8676d65f1",
      "e3fc8c85062cd221086b7cf43145a9a8" );
    ( "jack", "middle",
      "5219757f059fce21e2721e4401eb2773/opt/x86/default/3/w:ae4d664f82e5af9171c94c29e25f0f25",
      "cea1d7c5833e286dcb4fe638ccc9f937" );
  ]

let golden_heuristics =
  [
    ("default", Heuristic.default);
    ("aggressive", Heuristic.of_array [| 50; 20; 15; 4000; 400 |]);
    ("conservative", Heuristic.of_array [| 8; 4; 2; 300; 40 |]);
    ("middle", Heuristic.of_array [| 35; 15; 8; 1200; 200 |]);
  ]

let test_golden_keys () =
  List.iter
    (fun (bname, hname, want_key, want_codes) ->
      let prog = W.Suites.program (W.Suites.find bname) in
      let heuristic = List.assoc hname golden_heuristics in
      let what = bname ^ "/" ^ hname in
      Alcotest.(check string) (what ^ " key") want_key
        (Fitcache.key ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic
           ~inline_enabled:true ~plan:Plan.default ~iterations:3 prog);
      let codes =
        match
          Fitcache.code_keys ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic
            ~inline_enabled:true ~plan:Plan.default prog
        with
        | None -> "none"
        | Some a -> Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list a)))
      in
      Alcotest.(check string) (what ^ " code keys") want_codes codes)
    golden

(* [Fitcache.key] under Adapt (x86, default plan, 3 iterations): the "p:"
   threshold projection, recorded before every decider took one signature
   function. *)
let golden_adapt =
  [
    ("compress", "default",
     "fed7dad7f172acddcf20e604610f6a4f/adapt/x86/default/3/p:3311111155555555555555/d5/c2048");
    ("compress", "aggressive",
     "fed7dad7f172acddcf20e604610f6a4f/adapt/x86/default/3/p:3333311111115555555555/d15/c4000");
    ("compress", "conservative",
     "fed7dad7f172acddcf20e604610f6a4f/adapt/x86/default/3/p:1555555555554444444444/d2/c300");
    ("compress", "middle",
     "fed7dad7f172acddcf20e604610f6a4f/adapt/x86/default/3/p:3333111111555555555555/d8/c1200");
    ("jess", "default",
     "2426e4e0926fa58e287aeaeb2627bdda/adapt/x86/default/3/p:33311111111115555555555555555555555555555555555555555555555555555555555555555555555555444444444444/d5/c2048");
    ("jess", "aggressive",
     "2426e4e0926fa58e287aeaeb2627bdda/adapt/x86/default/3/p:33333333311111111111111111155555555555555555555555555555555555555555555555555555555555555555555555/d15/c4000");
    ("jess", "conservative",
     "2426e4e0926fa58e287aeaeb2627bdda/adapt/x86/default/3/p:15555555555555555555544444444444444444444444444444444444444444444444444444444444444444444444444444/d2/c300");
    ("jess", "middle",
     "2426e4e0926fa58e287aeaeb2627bdda/adapt/x86/default/3/p:33333331111111111111155555555555555555555555555555555555555555555555555555555555555555555555555544/d8/c1200");
    ("db", "default",
     "294aea08dc8f9ef70b869800d6ab0011/adapt/x86/default/3/p:3311155555555555555555555555555554/d5/c2048");
    ("db", "aggressive",
     "294aea08dc8f9ef70b869800d6ab0011/adapt/x86/default/3/p:3333111111111115555555555555555555/d15/c4000");
    ("db", "conservative",
     "294aea08dc8f9ef70b869800d6ab0011/adapt/x86/default/3/p:3155555555554444444444444444444444/d2/c300");
    ("db", "middle",
     "294aea08dc8f9ef70b869800d6ab0011/adapt/x86/default/3/p:3333111111555555555555555555555555/d8/c1200");
    ("javac", "default",
     "3ff22ece553d87109496ca173ebea2b6/adapt/x86/default/3/p:11155555555555555555555555555555555554444444444444444444444444/d5/c2048");
    ("javac", "aggressive",
     "3ff22ece553d87109496ca173ebea2b6/adapt/x86/default/3/p:33111555555555555555555555555555555555555555555555555555555555/d15/c4000");
    ("javac", "conservative",
     "3ff22ece553d87109496ca173ebea2b6/adapt/x86/default/3/p:55555444444444444444444444444444444444444444444444444444444444/d2/c300");
    ("javac", "middle",
     "3ff22ece553d87109496ca173ebea2b6/adapt/x86/default/3/p:31111555555555555555555555555555555555555555555555555555544444/d8/c1200");
    ("mpegaudio", "default",
     "7a04dec46f7f0971e83b810fc77fa4c4/adapt/x86/default/3/p:3311155555555555555555544/d5/c2048");
    ("mpegaudio", "aggressive",
     "7a04dec46f7f0971e83b810fc77fa4c4/adapt/x86/default/3/p:3331111555555555555555555/d15/c4000");
    ("mpegaudio", "conservative",
     "7a04dec46f7f0971e83b810fc77fa4c4/adapt/x86/default/3/p:1555555444444444444444444/d2/c300");
    ("mpegaudio", "middle",
     "7a04dec46f7f0971e83b810fc77fa4c4/adapt/x86/default/3/p:3331111555555555555555555/d8/c1200");
    ("raytrace", "default",
     "44e6aef1405accd7a3ba44dab14aba4c/adapt/x86/default/3/p:3333111155555555555555555555555/d5/c2048");
    ("raytrace", "aggressive",
     "44e6aef1405accd7a3ba44dab14aba4c/adapt/x86/default/3/p:3333333111111555555555555555555/d15/c4000");
    ("raytrace", "conservative",
     "44e6aef1405accd7a3ba44dab14aba4c/adapt/x86/default/3/p:3111555555444444444444444444444/d2/c300");
    ("raytrace", "middle",
     "44e6aef1405accd7a3ba44dab14aba4c/adapt/x86/default/3/p:3333311155555555555555555555555/d8/c1200");
    ("jack", "default",
     "5219757f059fce21e2721e4401eb2773/adapt/x86/default/3/p:3111155555555555555555555555555555555555555555544444444444/d5/c2048");
    ("jack", "aggressive",
     "5219757f059fce21e2721e4401eb2773/adapt/x86/default/3/p:3333111111555555555555555555555555555555555555555555555555/d15/c4000");
    ("jack", "conservative",
     "5219757f059fce21e2721e4401eb2773/adapt/x86/default/3/p:1555555554444444444444444444444444444444444444444444444444/d2/c300");
    ("jack", "middle",
     "5219757f059fce21e2721e4401eb2773/adapt/x86/default/3/p:3111111115555555555555555555555555555555555555555555555554/d8/c1200");
  ]

(* Two GP trees (static deciders) and one stored CART tree (a profiled
   decider), as [Fitcache.decider_key]s under Opt and Adapt (x86, default
   plan, 3 iterations), recorded when each policy kind still had its own
   signature function: a static tree walks ("w:") under Opt, everything
   else is keyed by its content digest ("g:"). *)
let golden_trees =
  [
    ("t1", "(or (le (feat 0) (const 25)) (and (gt (const 3) (feat 2)) (le (feat 1) (const 600))))");
    ("t2", "(and (le (feat 0) (add (feat 4) (const 20))) (not (gt (feat 2) (const 4))))");
  ]

let golden_cart =
  "inltune-policy v1 tree\nsplit 1 158\nsplit 4 1.5\nsplit 0 13\nleaf no-inline\nsplit 0 78\n\
   leaf inline\nsplit 0 161.5\nleaf no-inline\nleaf inline\nleaf no-inline\nleaf no-inline\n"

let golden_policies =
  [
    ("compress", "t1", "opt",
     "fed7dad7f172acddcf20e604610f6a4f/opt/x86/default/3/w:9fada7bbb08aa45334f53500b7a6021c");
    ("compress", "t1", "adapt",
     "fed7dad7f172acddcf20e604610f6a4f/adapt/x86/default/3/g:9f840a71435776463976f8fc6ec792e1");
    ("compress", "t2", "opt",
     "fed7dad7f172acddcf20e604610f6a4f/opt/x86/default/3/w:926add338d683c6e4c1ec05ec6a0573d");
    ("compress", "t2", "adapt",
     "fed7dad7f172acddcf20e604610f6a4f/adapt/x86/default/3/g:7f42bc37a20cc77976e75897ae2cabb1");
    ("jess", "t1", "opt",
     "2426e4e0926fa58e287aeaeb2627bdda/opt/x86/default/3/w:75bc9e43835c20b496701431fe9aef60");
    ("jess", "t1", "adapt",
     "2426e4e0926fa58e287aeaeb2627bdda/adapt/x86/default/3/g:9f840a71435776463976f8fc6ec792e1");
    ("jess", "t2", "opt",
     "2426e4e0926fa58e287aeaeb2627bdda/opt/x86/default/3/w:9fa7d4d224e0b497c691b1b2eed78092");
    ("jess", "t2", "adapt",
     "2426e4e0926fa58e287aeaeb2627bdda/adapt/x86/default/3/g:7f42bc37a20cc77976e75897ae2cabb1");
    ("db", "t1", "opt",
     "294aea08dc8f9ef70b869800d6ab0011/opt/x86/default/3/w:2e7274d925600d6aeeafd63d0aaea188");
    ("db", "t1", "adapt",
     "294aea08dc8f9ef70b869800d6ab0011/adapt/x86/default/3/g:9f840a71435776463976f8fc6ec792e1");
    ("db", "t2", "opt",
     "294aea08dc8f9ef70b869800d6ab0011/opt/x86/default/3/w:00d8a740a6592da1124827bb3a7f8527");
    ("db", "t2", "adapt",
     "294aea08dc8f9ef70b869800d6ab0011/adapt/x86/default/3/g:7f42bc37a20cc77976e75897ae2cabb1");
    ("javac", "t1", "opt",
     "3ff22ece553d87109496ca173ebea2b6/opt/x86/default/3/w:781f51d37649a0bc543451b816e61d92");
    ("javac", "t1", "adapt",
     "3ff22ece553d87109496ca173ebea2b6/adapt/x86/default/3/g:9f840a71435776463976f8fc6ec792e1");
    ("javac", "t2", "opt",
     "3ff22ece553d87109496ca173ebea2b6/opt/x86/default/3/w:5ef3a8a3f236ec72026c205646fe6811");
    ("javac", "t2", "adapt",
     "3ff22ece553d87109496ca173ebea2b6/adapt/x86/default/3/g:7f42bc37a20cc77976e75897ae2cabb1");
    ("mpegaudio", "t1", "opt",
     "7a04dec46f7f0971e83b810fc77fa4c4/opt/x86/default/3/w:e9f22fc5e59c92947f14633290a3d80e");
    ("mpegaudio", "t1", "adapt",
     "7a04dec46f7f0971e83b810fc77fa4c4/adapt/x86/default/3/g:9f840a71435776463976f8fc6ec792e1");
    ("mpegaudio", "t2", "opt",
     "7a04dec46f7f0971e83b810fc77fa4c4/opt/x86/default/3/w:fc8dd3e6af30ea7175ae4abe0409aecd");
    ("mpegaudio", "t2", "adapt",
     "7a04dec46f7f0971e83b810fc77fa4c4/adapt/x86/default/3/g:7f42bc37a20cc77976e75897ae2cabb1");
    ("raytrace", "t1", "opt",
     "44e6aef1405accd7a3ba44dab14aba4c/opt/x86/default/3/w:eba741f031c8e49e7a083ac71fa62171");
    ("raytrace", "t1", "adapt",
     "44e6aef1405accd7a3ba44dab14aba4c/adapt/x86/default/3/g:9f840a71435776463976f8fc6ec792e1");
    ("raytrace", "t2", "opt",
     "44e6aef1405accd7a3ba44dab14aba4c/opt/x86/default/3/w:955463a94cceec94d6eb4161fc45cf73");
    ("raytrace", "t2", "adapt",
     "44e6aef1405accd7a3ba44dab14aba4c/adapt/x86/default/3/g:7f42bc37a20cc77976e75897ae2cabb1");
    ("jack", "t1", "opt",
     "5219757f059fce21e2721e4401eb2773/opt/x86/default/3/w:66baeadf87e5eab9ef4432146a68b27f");
    ("jack", "t1", "adapt",
     "5219757f059fce21e2721e4401eb2773/adapt/x86/default/3/g:9f840a71435776463976f8fc6ec792e1");
    ("jack", "t2", "opt",
     "5219757f059fce21e2721e4401eb2773/opt/x86/default/3/w:8ede323830740c17f70e83f2f33e7a03");
    ("jack", "t2", "adapt",
     "5219757f059fce21e2721e4401eb2773/adapt/x86/default/3/g:7f42bc37a20cc77976e75897ae2cabb1");
    ("compress", "cart", "opt",
     "fed7dad7f172acddcf20e604610f6a4f/opt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("compress", "cart", "adapt",
     "fed7dad7f172acddcf20e604610f6a4f/adapt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("jess", "cart", "opt",
     "2426e4e0926fa58e287aeaeb2627bdda/opt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("jess", "cart", "adapt",
     "2426e4e0926fa58e287aeaeb2627bdda/adapt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("db", "cart", "opt",
     "294aea08dc8f9ef70b869800d6ab0011/opt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("db", "cart", "adapt",
     "294aea08dc8f9ef70b869800d6ab0011/adapt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("javac", "cart", "opt",
     "3ff22ece553d87109496ca173ebea2b6/opt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("javac", "cart", "adapt",
     "3ff22ece553d87109496ca173ebea2b6/adapt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("mpegaudio", "cart", "opt",
     "7a04dec46f7f0971e83b810fc77fa4c4/opt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("mpegaudio", "cart", "adapt",
     "7a04dec46f7f0971e83b810fc77fa4c4/adapt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("raytrace", "cart", "opt",
     "44e6aef1405accd7a3ba44dab14aba4c/opt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("raytrace", "cart", "adapt",
     "44e6aef1405accd7a3ba44dab14aba4c/adapt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("jack", "cart", "opt",
     "5219757f059fce21e2721e4401eb2773/opt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
    ("jack", "cart", "adapt",
     "5219757f059fce21e2721e4401eb2773/adapt/x86/default/3/g:b369fd3e1e4c054de4f262be5f2913cd");
  ]

let gp_tree text =
  match Gp.Tree.of_text ~dim:Features.dim text with
  | Ok t -> t
  | Error e -> Alcotest.failf "golden tree does not parse: %s" e

let test_golden_adapt_keys () =
  List.iter
    (fun (bname, hname, want) ->
      Alcotest.(check string) (bname ^ "/" ^ hname ^ " adapt key") want
        (Fitcache.key ~scenario:Machine.Adapt ~platform:Platform.x86
           ~heuristic:(List.assoc hname golden_heuristics) ~inline_enabled:true
           ~plan:Plan.default ~iterations:3
           (W.Suites.program (W.Suites.find bname))))
    golden_adapt

let test_golden_policy_keys () =
  let cart =
    match Inltune_policy.Store.of_string golden_cart with
    | Ok s -> s
    | Error e -> Alcotest.failf "golden CART tree does not parse: %s" e
  in
  List.iter
    (fun (bname, pname, scen, want) ->
      let decider =
        if pname = "cart" then Inltune_policy.Apply.decider cart
        else Gp.Decode.decider (gp_tree (List.assoc pname golden_trees))
      in
      let scenario = if scen = "opt" then Machine.Opt else Machine.Adapt in
      Alcotest.(check string) (String.concat "/" [ bname; pname; scen ] ^ " key") want
        (Fitcache.decider_key ~scenario ~platform:Platform.x86 ~decider ~inline_enabled:true
           ~plan:Plan.default ~iterations:3
           (W.Suites.program (W.Suites.find bname))))
    golden_policies

(* --- one measurement path for policies -------------------------------------- *)

(* Empty caches on the flat interpreter; restored afterwards. *)
let with_clean_caches f =
  let reference = Machine.reference_enabled () in
  Machine.set_reference false;
  Fitcache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Machine.set_reference reference;
      Fitcache.clear ())
    f

let rec random_dtree rng depth =
  if depth = 0 || Rng.int rng 3 = 0 then Inltune_policy.Dtree.Leaf (Rng.bool rng)
  else
    Inltune_policy.Dtree.Split
      {
        feat = Rng.int rng Features.dim;
        thresh = Float.of_int (Rng.int rng 400) +. 0.5;
        le = random_dtree rng (depth - 1);
        gt = random_dtree rng (depth - 1);
      }

(* The SPECjvm98 programs and one corpus program per family. *)
let policy_programs =
  Array.of_list
    (W.Suites.spec
    @ List.map
        (fun name -> Option.get (W.Corpus.find_opt name))
        [ "corpus_chain00"; "corpus_dispatch00"; "corpus_recur00"; "corpus_sweep00";
          "corpus_phase00" ])

(* A random GP tree or random stored tree, with the cache-free policy
   factory it stands for. *)
let random_decider rng ctx =
  if Rng.bool rng then
    let tree = Gp.Genetic.random rng in
    (Gp.Tree.to_text tree, Gp.Decode.decider tree, Gp.Decode.factory ~ctx tree)
  else
    let store = Inltune_policy.Store.Tree (random_dtree rng 4) in
    ( String.escaped (Inltune_policy.Store.to_string store),
      Inltune_policy.Apply.decider store,
      Inltune_policy.Apply.factory ~ctx store )

(* A case: the decider under test, a filler decider, a program, a scenario
   and a platform, all drawn from one seed. *)
let policy_case seed =
  let rng = Rng.create seed in
  let bm = policy_programs.(Rng.int rng (Array.length policy_programs)) in
  let scenario = if Rng.bool rng then Machine.Opt else Machine.Adapt in
  let platform = if Rng.bool rng then Platform.x86 else Platform.ppc in
  let ctx = Features.make_ctx (W.Suites.program bm) in
  let under_test = random_decider rng ctx in
  (under_test, random_decider rng ctx, bm, scenario, platform)

let print_policy_case seed =
  let (what, _, _), (filler, _, _), bm, scenario, platform = policy_case seed in
  Printf.sprintf "seed %d: %s (filler %s) on %s/%s/%s" seed what filler bm.W.Suites.bname
    (Machine.scenario_name scenario) platform.Platform.pname

(* Cold (both caches empty), with a warm fitness cache (the same query
   again, after a filler policy and the default heuristic filled both
   caches with their entries) and with a warm compile cache (another
   iteration count: a fitness miss whose compiles were made before),
   [Measure.run_decider] returns what a cache-free simulation of the
   decider measures, field for field; so does the filler. *)
let prop_policy_path_matches_fresh =
  QCheck.Test.make ~count:30 ~name:"policy measurements = cache-free simulation"
    (QCheck.make ~print:print_policy_case (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let (_, decider, factory), (_, filler, filler_factory), bm, scenario, platform =
        policy_case seed
      in
      let prog = W.Suites.program bm in
      let fresh factory iterations =
        Runner.measure ~iterations
          (Machine.config ~policy_factory:factory scenario Heuristic.default)
          platform prog
      in
      let measured decider iterations =
        (Measure.run_decider ~iterations ~scenario ~platform ~decider bm).Measure.raw
      in
      with_clean_caches (fun () ->
          let want3 = fresh factory 3 and want2 = fresh factory 2 in
          let filler_want = fresh filler_factory 3 in
          let cold = measured decider 3 in
          let filled = measured filler 3 in
          ignore (measured (Fitcache.Heuristic Heuristic.default) 3 : Runner.measurement);
          let warm_fitness = measured decider 3 in
          let warm_compile = measured decider 2 in
          cold = want3 && filled = filler_want && warm_fitness = want3 && warm_compile = want2))

(* Positive control: a static policy's Opt simulation reuses compiles (its
   walk gives per-method keys); a stored tree reads the live profile, so it
   gets none. *)
let test_static_policy_reuses_compiles () =
  let bm = W.Suites.find "compress" in
  let hits () = Inltune_obs.Metric.value (Inltune_obs.Metric.counter "vm.code_cache.hits") in
  let hits_of decider =
    with_clean_caches (fun () ->
        ignore
          (Measure.run_decider ~iterations:3 ~scenario:Machine.Opt ~platform:Platform.x86
             ~decider bm
            : Measure.times);
        let h0 = hits () in
        ignore
          (Measure.run_decider ~iterations:2 ~scenario:Machine.Opt ~platform:Platform.x86
             ~decider bm
            : Measure.times);
        hits () - h0)
  in
  Alcotest.(check bool) "GP tree hits the compile cache" true
    (hits_of (Gp.Decode.decider (gp_tree (List.assoc "t1" golden_trees))) > 0);
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
  Alcotest.(check int) "stored tree compiles fresh" 0
    (hits_of (Inltune_policy.Apply.decider cart))

(* --- constant propagation against the dense oracle ------------------------- *)

let same_constprop ~what program m =
  if Constprop.run program m <> Constprop_dense.run program m then
    Alcotest.failf "%s: constprop differs from the dense oracle on %s" what m.Ir.mname

(* Interpret [plan] on [m] item by item, as [Pipeline.run] does, checking
   every constprop invocation's input against the oracle. *)
let check_stages ~what program ctx plan m =
  Array.fold_left
    (fun m (it : Plan.item) ->
      match Pass.find it.Plan.pass with
      | Some p when it.Plan.enabled && p.Pass.applicable ctx ->
        let knob = Plan.item_knob it in
        let iters = match Pass.find_knob p "iters" with Some _ -> knob "iters" | None -> 1 in
        let m = ref m in
        for _ = 1 to iters do
          if p.Pass.name = "constprop" then same_constprop ~what program !m;
          m := fst (p.Pass.run program ctx ~knob !m)
        done;
        !m
      | _ -> m)
    m plan.Plan.items
  |> ignore

(* The Opt pipeline's inputs, or the Adapt pipeline's: hot sites and a
   guarded-devirtualization oracle, so constprop sees guarded dispatch. *)
let pass_ctx ~adapt heuristic program =
  let nclasses = Array.length program.Ir.classes in
  {
    Pass.decider = Decider.Heuristic heuristic;
    hot_site =
      (if adapt then Some (fun ~site_owner ~callee -> (site_owner + callee) mod 3 = 0) else None);
    devirt_oracle =
      (if adapt && nclasses > 0 then
         Some
           (fun ~site_owner ~slot ->
             if (site_owner + slot) mod 2 = 0 then Some (((7 * site_owner) + slot) mod nclasses)
             else None)
       else None);
    profile = None;
  }

let prop_constprop_matches_dense =
  QCheck.Test.make ~count:60 ~name:"constprop = dense oracle at every stage"
    QCheck.(pair (int_bound (nprograms - 1)) (int_bound 100_000))
    (fun (pi, seed) ->
      let program = program_at pi in
      let rng = Rng.create seed in
      let heuristic = random_heuristic rng in
      let plan =
        if Rng.bool rng then Plan.default
        else Plan.of_genes (Array.map (fun (lo, hi) -> Rng.range rng lo hi) Plan.tunable_ranges)
      in
      let adapt = Rng.bool rng in
      let ctx = pass_ctx ~adapt heuristic program in
      Array.iter
        (check_stages ~what:(Printf.sprintf "program %d seed %d" pi seed) program ctx plan)
        program.Ir.methods;
      true)

(* The largest post-inlining methods: SPECjvm98 under the most aggressive
   heuristic, both pipelines. *)
let test_constprop_dense_spec () =
  let heuristic = Heuristic.of_array [| 50; 20; 15; 4000; 400 |] in
  List.iter
    (fun bm ->
      let program = W.Suites.program bm in
      List.iter
        (fun adapt ->
          Array.iter
            (check_stages ~what:bm.W.Suites.bname program (pass_ctx ~adapt heuristic program)
               Plan.default)
            program.Ir.methods)
        [ false; true ])
    W.Suites.spec

(* Above the analysis budget both formulations return the method
   untouched, however foldable it is. *)
let test_constprop_over_budget () =
  let foldable =
    {
      Ir.instrs = [| Ir.Const (0, 2); Ir.Const (1, 3); Ir.Binop (Ir.Add, 2, 0, 1) |];
      term = Ir.Ret 2;
    }
  in
  let m =
    { Ir.mid = 0; mname = "huge"; nargs = 0; nregs = 1_000_001; blocks = [| foldable; foldable |] }
  in
  let program = { Ir.pname = "huge"; methods = [| m |]; classes = [||]; main = 0 } in
  let m', stats = Constprop.run program m in
  Alcotest.(check bool) "unchanged" true (m' == m);
  Alcotest.(check int) "nothing folded" 0 stats.Constprop.folded;
  same_constprop ~what:"over budget" program m;
  let small = { m with Ir.nregs = 3 } in
  Alcotest.(check bool) "folds within budget" true
    ((snd (Constprop.run program small)).Constprop.folded > 0)

(* Entry state: arguments are unknown, every other register reads as the
   calling convention's zero. *)
let test_constprop_entry_state () =
  let blk =
    {
      Ir.instrs =
        [| Ir.Binop (Ir.Add, 2, 0, 1); Ir.Binop (Ir.Mul, 3, 1, 0); Ir.Print 2; Ir.Print 3 |];
      term = Ir.Ret 0;
    }
  in
  let m = { Ir.mid = 0; mname = "entry"; nargs = 1; nregs = 4; blocks = [| blk |] } in
  let program = { Ir.pname = "entry"; methods = [| m |]; classes = [||]; main = 0 } in
  let m', stats = Constprop.run program m in
  Alcotest.(check int) "x+0 and 0*x fold" 2 stats.Constprop.folded;
  Alcotest.(check bool) "folded to a move and a zero" true
    (m'.Ir.blocks.(0).Ir.instrs.(0) = Ir.Move (2, 0)
    && m'.Ir.blocks.(0).Ir.instrs.(1) = Ir.Const (3, 0));
  same_constprop ~what:"entry state" program m

(* --- replaying the bits ---------------------------------------------------- *)

(* A policy that answers every site it is asked about with the next bit of
   [bits], and how many it has read. *)
let replay bits =
  let read = ref 0 in
  ( Policy.of_predicate ~name:"replay" ~accept_rule:"replay_accept" ~reject_rule:"replay_reject"
      (fun _ ->
        let i = !read in
        incr read;
        i < String.length bits && bits.[i] = '1'),
    fun () -> !read )

(* [Engine.run]'s output is a function of its input and the walk's bits:
   replaying the bits of a walk under any policy and hot predicate, on
   constprop'd roots and on outputs of an earlier engine run, builds the
   method the policy itself builds, reading each bit once. *)
let prop_replay_matches_run =
  QCheck.Test.make ~count:60 ~name:"replayed walk bits = Engine.run output"
    QCheck.(pair (int_bound (nprograms - 1)) (int_bound 100_000))
    (fun (pi, seed) ->
      let program = program_at pi in
      let rng = Rng.create seed in
      let policy_of = random_policy rng program and earlier = random_policy rng program in
      let hot_site = if Rng.bool rng then Some (random_hot rng) else None in
      let bodies = Engine.call_sites program.Ir.methods in
      Array.for_all
        (fun m ->
          let m = fst (Constprop.run program m) in
          let derived = fst (Engine.run ~program ~policy:(earlier m) m) in
          List.for_all
            (fun m ->
              let policy = policy_of m in
              let bits = walk_bits ~bodies ?hot_site ~policy m in
              let replayed, read = replay bits in
              let out = fst (Engine.run ?hot_site ~program ~policy m) in
              fst (Engine.run ~program ~policy:replayed m) = out && read () = String.length bits)
            [ m; derived ])
        program.Ir.methods)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_walk_matches_run;
    Alcotest.test_case "fitness and code keys match recorded values" `Quick test_golden_keys;
    Alcotest.test_case "adapt fitness keys match recorded values" `Quick test_golden_adapt_keys;
    Alcotest.test_case "policy fitness keys match recorded values" `Quick
      test_golden_policy_keys;
    QCheck_alcotest.to_alcotest prop_policy_path_matches_fresh;
    Alcotest.test_case "static policy reuses compiles" `Quick test_static_policy_reuses_compiles;
    QCheck_alcotest.to_alcotest prop_constprop_matches_dense;
    Alcotest.test_case "constprop = dense oracle on SPEC, aggressive" `Quick
      test_constprop_dense_spec;
    Alcotest.test_case "constprop entry state" `Quick test_constprop_entry_state;
    Alcotest.test_case "constprop over budget untouched" `Quick test_constprop_over_budget;
    QCheck_alcotest.to_alcotest prop_replay_matches_run;
  ]
