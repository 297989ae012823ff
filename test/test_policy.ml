open Inltune_opt
open Inltune_vm
module W = Inltune_workloads
module Pool = Inltune_support.Pool
module Vec = Inltune_support.Vec
module Features = Inltune_policy.Features
module Dtree = Inltune_policy.Dtree
module Cart = Inltune_policy.Cart
module Dataset = Inltune_policy.Dataset
module Store = Inltune_policy.Store
module Apply = Inltune_policy.Apply
module Evaluate = Inltune_policy.Evaluate
module Measure = Inltune_core.Measure

(* --- feature extraction ------------------------------------------------- *)

let static_vectors bench =
  let p = W.Suites.program (W.Suites.find bench) in
  let ctx = Features.make_ctx p in
  Array.map (fun (_, x) -> Features.vector_to_string x) (Features.of_program ctx p)

let test_feature_shape () =
  let p = W.Suites.program (W.Suites.find "compress") in
  let ctx = Features.make_ctx p in
  let sites = Features.of_program ctx p in
  Alcotest.(check bool) "found call sites" true (Array.length sites > 0);
  Array.iter
    (fun (_, x) ->
      Alcotest.(check int) "vector arity" Features.dim (Array.length x);
      Array.iter
        (fun v -> Alcotest.(check bool) "finite feature" true (Float.is_finite v))
        x)
    sites;
  Alcotest.(check int) "names arity" Features.dim (Array.length Features.names)

let test_feature_determinism_static () =
  List.iter
    (fun bench ->
      Alcotest.(check (array string)) (bench ^ " static vectors stable")
        (static_vectors bench) (static_vectors bench))
    [ "compress"; "jess"; "antlr" ]

(* The static context is a program fact: one per program value.  A
   structurally equal copy is another value, whose context is built afresh
   and gives the same vectors. *)
let test_feature_ctx_is_a_fact () =
  let p = W.Suites.program (W.Suites.find "jess") in
  Alcotest.(check bool) "one context per program value" true
    (Features.make_ctx p == Features.make_ctx p);
  let copy = { p with Inltune_jir.Ir.methods = Array.copy p.Inltune_jir.Ir.methods } in
  let vectors q =
    Array.map
      (fun (_, x) -> Features.vector_to_string x)
      (Features.of_program (Features.make_ctx q) q)
  in
  Alcotest.(check bool) "the copy has its own context" false
    (Features.make_ctx copy == Features.make_ctx p);
  Alcotest.(check (array string)) "and the same vectors" (vectors p) (vectors copy)

(* The dynamic path: replaying the optimizer (profile state and all) twice
   must enumerate byte-identical feature vectors in the same order. *)
let test_feature_determinism_dynamic () =
  let enum () =
    let cfg = { Dataset.default_config with Dataset.scenario = Machine.Adapt } in
    match Dataset.enumerate cfg [ W.Suites.find "compress" ] with
    | [ (_, sites) ] ->
      Array.map (fun (x, accept) -> Features.vector_to_string x ^ string_of_bool accept) sites
    | _ -> Alcotest.fail "expected one benchmark"
  in
  let a = enum () in
  Alcotest.(check bool) "saw decisions" true (Array.length a > 0);
  Alcotest.(check (array string)) "replay is byte-identical" a (enum ())

let test_feature_extraction_parallel () =
  let p = W.Suites.program (W.Suites.find "jess") in
  let ctx = Features.make_ctx p in
  let sites = Features.of_program ctx p in
  let sequential = Array.map (fun (_, x) -> Features.vector_to_string x) sites in
  let parallel =
    Pool.map_result ~domains:4
      (fun (s, _) -> Features.vector_to_string (Features.of_site ctx s))
      sites
    |> Array.map (function Ok v -> v | Error e -> raise e)
  in
  Alcotest.(check (array string)) "Pool extraction matches sequential" sequential parallel

(* --- Policy.of_heuristic equivalence ------------------------------------ *)

let test_of_heuristic_matches_consider () =
  let h = Heuristic.default in
  let pol = Policy.of_heuristic h in
  let p = W.Suites.program (W.Suites.find "jess") in
  let ctx = Features.make_ctx p in
  Array.iter
    (fun ((s : Policy.site), _) ->
      let v = pol.Policy.decide s in
      Alcotest.(check bool) "cold decision"
        (Heuristic.consider h ~callee_size:s.Policy.callee_size
           ~inline_depth:s.Policy.inline_depth ~caller_size:s.Policy.caller_size)
        v.Policy.accept;
      let hot = pol.Policy.decide { s with Policy.hot = true } in
      Alcotest.(check bool) "hot decision"
        (Heuristic.consider_hot h ~callee_size:s.Policy.callee_size)
        hot.Policy.accept)
    (Features.of_program ctx p)

(* Acceptance criterion: the threshold policy must reproduce the Fig. 3
   procedure *exactly* on the test corpus — same per-site reasons, same
   transformed code. *)
let test_threshold_reproduces_heuristic_decisions () =
  let store = Store.Threshold Heuristic.default in
  List.iter
    (fun bm ->
      let p = W.Suites.program bm in
      let ctx = Features.make_ctx p in
      let pol = Apply.policy ~ctx store in
      Array.iter
        (fun m ->
          let dh = Vec.create () and dp = Vec.create () in
          let mh, _ =
            Engine.run ~decisions:dh ~program:p ~policy:(Policy.of_heuristic Heuristic.default) m
          in
          let mp, _ = Engine.run ~decisions:dp ~program:p ~policy:pol m in
          let summarize v =
            Array.map
              (fun (d : Engine.decision) ->
                Printf.sprintf "%d->%d %s %b" d.Engine.d_site_owner d.Engine.d_callee
                  (Engine.reason_name d.Engine.d_reason)
                  (Engine.decision_accepts d))
              (Vec.to_array v)
          in
          Alcotest.(check (array string))
            (bm.W.Suites.bname ^ "/" ^ m.Inltune_jir.Ir.mname ^ " decisions")
            (summarize dh) (summarize dp);
          Alcotest.(check bool)
            (bm.W.Suites.bname ^ "/" ^ m.Inltune_jir.Ir.mname ^ " code")
            true (mh = mp))
        p.Inltune_jir.Ir.methods)
    W.Suites.dacapo

let test_threshold_end_to_end_equals_default () =
  List.iter
    (fun scenario ->
      let bm = W.Suites.find "antlr" in
      let d = Measure.run ~scenario ~platform:Platform.x86 ~heuristic:Heuristic.default bm in
      let t =
        Evaluate.measure ~scenario ~platform:Platform.x86 (Store.Threshold Heuristic.default) bm
      in
      Alcotest.(check int) "total cycles" d.Measure.raw.Runner.total_cycles
        t.Measure.raw.Runner.total_cycles;
      Alcotest.(check int) "running cycles" d.Measure.raw.Runner.running_cycles
        t.Measure.raw.Runner.running_cycles;
      Alcotest.(check int) "checksum" d.Measure.raw.Runner.ret t.Measure.raw.Runner.ret)
    [ Machine.Opt; Machine.Adapt ]

(* --- decision trees ------------------------------------------------------ *)

let test_dtree_decide () =
  let t =
    Dtree.Split
      {
        feat = 0;
        thresh = 10.0;
        le = Dtree.Leaf true;
        gt = Dtree.Split { feat = 1; thresh = 2.0; le = Dtree.Leaf false; gt = Dtree.Leaf true };
      }
  in
  Alcotest.(check bool) "left leaf" true (Dtree.decide t [| 10.0; 0.0 |]);
  Alcotest.(check bool) "right-left leaf" false (Dtree.decide t [| 11.0; 2.0 |]);
  Alcotest.(check bool) "right-right leaf" true (Dtree.decide t [| 11.0; 2.5 |]);
  Alcotest.(check int) "size" 5 (Dtree.size t);
  Alcotest.(check int) "depth" 3 (Dtree.depth t)

let test_dtree_text_round_trip () =
  let t =
    Dtree.Split
      {
        feat = 3;
        thresh = 0.5;
        le = Dtree.Leaf false;
        gt = Dtree.Split { feat = 0; thresh = 22.75; le = Dtree.Leaf true; gt = Dtree.Leaf false };
      }
  in
  match Dtree.of_text ~dim:Features.dim (Dtree.to_text t) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok t' -> Alcotest.(check bool) "tree preserved" true (t = t')

let test_dtree_text_rejects_garbage () =
  let bad text =
    match Dtree.of_text ~dim:Features.dim text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted garbage: %s" (String.escaped text)
  in
  bad "";
  bad "leaf maybe\n";
  bad "split 0 1.0\nleaf inline\n";  (* missing right child *)
  bad "split 99 1.0\nleaf inline\nleaf no-inline\n";  (* feature out of range *)
  bad "split 0 nan\nleaf inline\nleaf no-inline\n";  (* non-finite threshold *)
  bad "split zero 1.0\nleaf inline\nleaf no-inline\n";
  bad "leaf inline\nleaf no-inline\n"  (* trailing garbage *)

let test_cart_learns_separable_rule () =
  (* label = (x0 <= 10) && (x1 > 3): CART must recover it exactly. *)
  let examples =
    Array.init 200 (fun i ->
        let x0 = Float.of_int (i mod 20) and x1 = Float.of_int (i / 20) in
        ([| x0; x1 |], x0 <= 10.0 && x1 > 3.0))
  in
  let tree = Cart.train ~params:{ Cart.max_depth = 4; min_leaf = 1; min_gain = 1e-9 } examples in
  Alcotest.(check (float 0.0)) "perfect accuracy" 1.0 (Cart.accuracy tree examples);
  (* Training is deterministic: re-training yields the identical tree. *)
  let tree' = Cart.train ~params:{ Cart.max_depth = 4; min_leaf = 1; min_gain = 1e-9 } examples in
  Alcotest.(check bool) "deterministic" true (tree = tree')

let test_cart_degenerate_inputs () =
  Alcotest.(check bool) "empty -> reject-all leaf" true (Cart.train [||] = Dtree.Leaf false);
  let pure = Array.init 10 (fun i -> ([| Float.of_int i |], true)) in
  Alcotest.(check bool) "pure -> accept leaf" true (Cart.train pure = Dtree.Leaf true);
  let tr, te = Cart.split ~k:4 (Array.init 8 (fun i -> ([| Float.of_int i |], true))) in
  Alcotest.(check int) "train size" 6 (Array.length tr);
  Alcotest.(check int) "test size" 2 (Array.length te)

(* --- policy store -------------------------------------------------------- *)

let test_store_round_trip () =
  let tree =
    Store.Tree
      (Dtree.Split { feat = 0; thresh = 22.5; le = Dtree.Leaf true; gt = Dtree.Leaf false })
  in
  let thr = Store.Threshold Heuristic.default in
  List.iter
    (fun s ->
      match Store.of_string (Store.to_string s) with
      | Error e -> Alcotest.failf "round trip failed: %s" e
      | Ok s' -> Alcotest.(check bool) "store preserved" true (s = s'))
    [ tree; thr ]

(* GP predicate trees are policy artifacts too: random genomes must
   round-trip through their canonical text form just like stores do.  The
   full property (200 random seeds) lives in the gp suite; this keeps the
   artifact-format contract visible next to the store tests. *)
let test_gp_tree_round_trip () =
  let module Gp = Inltune_gp in
  for seed = 1 to 20 do
    let t = Gp.Genetic.random (Inltune_support.Rng.create seed) in
    match Gp.Tree.of_string ~dim:Features.dim (Gp.Tree.to_string t) with
    | Error e -> Alcotest.failf "gp round trip failed: %s" e
    | Ok t' ->
      Alcotest.(check string) "canonical text preserved" (Gp.Tree.to_text t)
        (Gp.Tree.to_text t');
      Alcotest.(check string) "digest stable" (Gp.Tree.digest t) (Gp.Tree.digest t')
  done

let test_store_clamps_threshold_genes () =
  (* Out-of-range parameters clamp exactly like GA genomes (Table 1). *)
  match Store.of_string "inltune-policy v1 threshold\n9999 9999 9999 9999 9999\n" with
  | Error e -> Alcotest.failf "clampable genome rejected: %s" e
  | Ok (Store.Threshold h) ->
    Alcotest.(check bool) "clamped into Table 1 ranges" true
      (Heuristic.equal h (Heuristic.of_array [| 9999; 9999; 9999; 9999; 9999 |]))
  | Ok _ -> Alcotest.fail "wrong kind"

let test_store_rejects_corrupt () =
  let bad text =
    match Store.of_string text with
    | Error e ->
      Alcotest.(check bool) "one-line error" false (String.contains e '\n')
    | Ok _ -> Alcotest.failf "accepted corrupt policy: %s" (String.escaped text)
  in
  bad "";
  bad "not a policy\nstuff\n";
  bad "inltune-policy v2 tree\nleaf inline\n";
  bad "inltune-policy v1 threshold\n1 2 3\n";  (* wrong arity *)
  bad "inltune-policy v1 threshold\n1 2 three 4 5\n";
  bad "inltune-policy v1 tree\nsplit 0 1.0\nleaf inline\n";
  Alcotest.(check bool) "missing file is an Error" true
    (match Store.load "/nonexistent/policy.txt" with Error _ -> true | Ok _ -> false)

(* --- datasets ------------------------------------------------------------ *)

let example =
  {
    Dataset.x_bench = "compress";
    x_ordinal = 7;
    x_features = [| 1.0; 2.5; 0.0 |];
    x_base = true;
    x_label = false;
    x_benefit = 0.03125;
  }

let test_dataset_line_round_trip () =
  match Dataset.of_line (Dataset.to_line example) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok e' -> Alcotest.(check bool) "example preserved" true (example = e')

let test_dataset_load_skips_malformed () =
  let path = Filename.temp_file "inltune_ds" ".jsonl" in
  let oc = open_out path in
  output_string oc (Dataset.to_line example ^ "\n");
  output_string oc "{\"bench\":\"trunca\n";
  output_string oc (Dataset.to_line { example with Dataset.x_ordinal = 8 } ^ "\n");
  close_out oc;
  let examples, bad = Result.get_ok (Dataset.load path) in
  Sys.remove path;
  Alcotest.(check int) "two examples" 2 (List.length examples);
  Alcotest.(check int) "one malformed line" 1 bad

let tiny_config =
  { Dataset.default_config with Dataset.max_sites = 2; iterations = 2 }

let test_dataset_generate_and_resume () =
  let bench = [ W.Suites.find "compress" ] in
  let path = Filename.temp_file "inltune_ds_resume" ".jsonl" in
  Sys.remove path;
  let first = Result.get_ok (Dataset.generate ~resume:path tiny_config bench) in
  Alcotest.(check int) "labeled max_sites examples" 2 (List.length first);
  List.iter
    (fun e ->
      Alcotest.(check string) "bench name" "compress" e.Dataset.x_bench;
      Alcotest.(check int) "feature arity" Features.dim (Array.length e.Dataset.x_features);
      Alcotest.(check bool) "finite benefit" true (Float.is_finite e.Dataset.x_benefit))
    first;
  (* Resuming re-measures nothing: the labeled-sites counter stands still and
     the examples come back identical (from the file). *)
  let before = Inltune_obs.Metric.value (Inltune_obs.Metric.counter "policy.sites_labeled") in
  let second = Result.get_ok (Dataset.generate ~resume:path tiny_config bench) in
  let after = Inltune_obs.Metric.value (Inltune_obs.Metric.counter "policy.sites_labeled") in
  Sys.remove path;
  Alcotest.(check int) "no new labels on resume" before after;
  Alcotest.(check bool) "resumed examples identical" true (first = second)

let test_dataset_labels_match_enumeration () =
  let bench = [ W.Suites.find "compress" ] in
  let enum =
    match Dataset.enumerate tiny_config bench with
    | [ (_, sites) ] -> sites
    | _ -> Alcotest.fail "expected one benchmark"
  in
  let examples = Result.get_ok (Dataset.generate tiny_config bench) in
  List.iteri
    (fun i e ->
      let feats, accept = enum.(i) in
      Alcotest.(check string) "features match enumeration"
        (Features.vector_to_string feats)
        (Features.vector_to_string e.Dataset.x_features);
      Alcotest.(check bool) "base decision matches" accept e.Dataset.x_base)
    examples

(* --- end to end ---------------------------------------------------------- *)

(* Whatever a tree decides, inlining is semantics-preserving: program output
   must equal the default system's output. *)
let test_tree_policy_preserves_semantics () =
  List.iter
    (fun (feat, thresh) ->
      let store =
        Store.Tree (Dtree.Split { feat; thresh; le = Dtree.Leaf true; gt = Dtree.Leaf false })
      in
      List.iter
        (fun bench ->
          let bm = W.Suites.find bench in
          let d = Measure.run_default ~scenario:Machine.Opt ~platform:Platform.x86 bm in
          let l = Evaluate.measure ~scenario:Machine.Opt ~platform:Platform.x86 store bm in
          Alcotest.(check int) (bench ^ " checksum") d.Measure.raw.Runner.ret
            l.Measure.raw.Runner.ret;
          Alcotest.(check int) (bench ^ " output hash") d.Measure.raw.Runner.out_hash
            l.Measure.raw.Runner.out_hash)
        [ "compress"; "fop" ])
    [ (0, 30.0); (8, 0.5) ]

let test_trained_policy_end_to_end () =
  let examples = Result.get_ok (Dataset.generate tiny_config [ W.Suites.find "compress" ]) in
  let tree = Cart.train (Dataset.to_training examples) in
  let store = Store.Tree tree in
  (* Round-trip through serialization before running, as the CLI would. *)
  let store =
    match Store.of_string (Store.to_string store) with
    | Ok s -> s
    | Error e -> Alcotest.failf "trained tree does not round-trip: %s" e
  in
  let bm = W.Suites.find "antlr" in
  let d = Measure.run_default ~scenario:Machine.Opt ~platform:Platform.x86 bm in
  let l = Evaluate.measure ~scenario:Machine.Opt ~platform:Platform.x86 store bm in
  Alcotest.(check int) "semantics preserved" d.Measure.raw.Runner.ret l.Measure.raw.Runner.ret;
  let report =
    Evaluate.compare_many ~scenario:Machine.Opt ~platform:Platform.x86
      [ ("learned", Evaluate.measure ~scenario:Machine.Opt ~platform:Platform.x86 store) ]
      [ bm ]
  in
  match Evaluate.many_geos report with
  | [ ("learned", geo) ] ->
    Alcotest.(check bool) "finite geomean" true
      (Float.is_finite geo.Evaluate.g_running && Float.is_finite geo.Evaluate.g_total)
  | _ -> Alcotest.fail "expected exactly the learned column"

(* A labelling run killed mid-append leaves the journal's last line cut in
   half.  The resumed run relabels that site and appends after the
   fragment, so every example labelled after the cut loads. *)
let test_dataset_torn_tail () =
  let bench = [ W.Suites.find "compress" ] in
  let path = Filename.temp_file "inltune_ds_torn" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let first = Result.get_ok (Dataset.generate ~resume:path tiny_config bench) in
      let text = Result.get_ok (Inltune_support.Textfile.read path) in
      let last = String.rindex_from text (String.length text - 2) '\n' + 1 in
      let cut = last + ((String.length text - last) / 2) in
      Result.get_ok (Inltune_support.Textfile.write path (String.sub text 0 cut));
      let more = { tiny_config with Dataset.max_sites = 3 } in
      let resumed = Result.get_ok (Dataset.generate ~resume:path more bench) in
      let examples, bad = Result.get_ok (Dataset.load path) in
      Alcotest.(check int) "the fragment is the one malformed line" 1 bad;
      Alcotest.(check (list int)) "every labelled ordinal loads" [ 0; 1; 2 ]
        (List.sort_uniq compare (List.map (fun e -> e.Dataset.x_ordinal) examples));
      Alcotest.(check bool) "the relabelled site matches the first run" true
        (List.nth first 1 = List.nth resumed 1))

let suite =
  [
    Alcotest.test_case "feature vectors: shape and finiteness" `Quick test_feature_shape;
    Alcotest.test_case "feature vectors: static determinism" `Quick test_feature_determinism_static;
    Alcotest.test_case "feature vectors: dynamic replay determinism" `Quick
      test_feature_determinism_dynamic;
    Alcotest.test_case "feature vectors: parallel == sequential" `Quick
      test_feature_extraction_parallel;
    Alcotest.test_case "of_heuristic matches consider/consider_hot" `Quick
      test_of_heuristic_matches_consider;
    Alcotest.test_case "threshold policy reproduces Fig. 3 decisions" `Quick
      test_threshold_reproduces_heuristic_decisions;
    Alcotest.test_case "threshold policy: end-to-end cycle parity" `Quick
      test_threshold_end_to_end_equals_default;
    Alcotest.test_case "feature context: one per program value" `Quick test_feature_ctx_is_a_fact;
    Alcotest.test_case "dtree: decide/size/depth" `Quick test_dtree_decide;
    Alcotest.test_case "dtree: text round trip" `Quick test_dtree_text_round_trip;
    Alcotest.test_case "dtree: rejects malformed text" `Quick test_dtree_text_rejects_garbage;
    Alcotest.test_case "cart: learns a separable rule" `Quick test_cart_learns_separable_rule;
    Alcotest.test_case "cart: degenerate inputs" `Quick test_cart_degenerate_inputs;
    Alcotest.test_case "store: round trip" `Quick test_store_round_trip;
    Alcotest.test_case "store: gp tree round trip" `Quick test_gp_tree_round_trip;
    Alcotest.test_case "store: clamps threshold genes" `Quick test_store_clamps_threshold_genes;
    Alcotest.test_case "store: rejects corrupt files" `Quick test_store_rejects_corrupt;
    Alcotest.test_case "dataset: line round trip" `Quick test_dataset_line_round_trip;
    Alcotest.test_case "dataset: load skips malformed lines" `Quick
      test_dataset_load_skips_malformed;
    Alcotest.test_case "dataset: generate + resume" `Quick test_dataset_generate_and_resume;
    Alcotest.test_case "dataset: labels match enumeration" `Quick
      test_dataset_labels_match_enumeration;
    Alcotest.test_case "tree policy preserves semantics" `Quick
      test_tree_policy_preserves_semantics;
    Alcotest.test_case "trained policy end to end" `Quick test_trained_policy_end_to_end;
    Alcotest.test_case "dataset torn tail" `Quick test_dataset_torn_tail;
  ]
