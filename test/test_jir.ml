open Inltune_jir
module B = Builder
module Rng = Inltune_support.Rng

(* A tiny hand-built program reused across tests: main computes
   add3(4, 5) + 1 where add3(x, y) = x + y + 3. *)
let tiny_program () =
  let b = B.create "tiny" in
  let add3 =
    B.method_ b ~name:"add3" ~nargs:2 (fun mb ->
        let three = B.const mb 3 in
        let t = B.add mb 0 1 in
        let r = B.add mb t three in
        B.ret mb r)
  in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let four = B.const mb 4 in
        let five = B.const mb 5 in
        let s = B.call mb add3 [ four; five ] in
        let one = B.const mb 1 in
        let r = B.add mb s one in
        B.print mb r;
        B.ret mb r)
  in
  B.set_main b main;
  B.finish b

(* --- builder --- *)

let test_builder_tiny () =
  let p = tiny_program () in
  Alcotest.(check int) "two methods" 2 (Array.length p.Ir.methods);
  Alcotest.(check int) "main id" 1 p.Ir.main;
  Alcotest.(check (list string)) "no validation errors" []
    (List.map (fun e -> e.Validate.what) (Validate.check p))

let test_builder_requires_main () =
  let b = B.create "nomain" in
  ignore (B.method_ b ~name:"f" ~nargs:0 (fun mb -> B.ret mb (B.const mb 0)));
  Alcotest.check_raises "no main" (Invalid_argument "Builder.finish: no main method set")
    (fun () -> ignore (B.finish b))

let test_builder_rejects_undefined () =
  let b = B.create "undef" in
  let m = B.declare b ~name:"f" ~nargs:0 in
  B.set_main b m;
  Alcotest.check_raises "undefined method"
    (Invalid_argument "Builder.finish: undefined method f") (fun () -> ignore (B.finish b))

let test_builder_rejects_unterminated () =
  let b = B.create "unterm" in
  let raised =
    try
      ignore (B.method_ b ~name:"f" ~nargs:0 (fun mb -> ignore (B.const mb 1)));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unterminated block rejected" true raised

let test_builder_rejects_double_define () =
  let b = B.create "dd" in
  let m = B.declare b ~name:"f" ~nargs:0 in
  B.define b m (fun mb -> B.ret mb (B.const mb 0));
  Alcotest.check_raises "double define" (Invalid_argument "Builder.define: already defined: f")
    (fun () -> B.define b m (fun mb -> B.ret mb (B.const mb 0)))

let test_builder_emit_after_terminate_rejected () =
  let b = B.create "eat" in
  let raised =
    try
      ignore
        (B.method_ b ~name:"f" ~nargs:0 (fun mb ->
             let r = B.const mb 0 in
             B.ret mb r;
             ignore (B.const mb 1)));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "emit after terminate rejected" true raised

let test_builder_for_loop_structure () =
  let b = B.create "loop" in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let acc = B.fresh_reg mb in
        B.emit mb (Ir.Const (acc, 0));
        let n = B.const mb 5 in
        B.for_loop mb ~n (fun i -> B.emit mb (Ir.Binop (Ir.Add, acc, acc, i)));
        B.ret mb acc)
  in
  B.set_main b main;
  let p = B.finish b in
  Validate.check_exn p;
  Alcotest.(check bool) "has at least 4 blocks" true
    (Array.length p.Ir.methods.(main).Ir.blocks >= 4)

(* --- validate --- *)

let test_validate_bad_register () =
  let bad =
    {
      Ir.mid = 0;
      mname = "bad";
      nargs = 0;
      nregs = 1;
      blocks = [| { Ir.instrs = [| Ir.Move (0, 5) |]; term = Ir.Ret 0 } |];
    }
  in
  let p = { Ir.pname = "p"; methods = [| bad |]; classes = [||]; main = 0 } in
  Alcotest.(check bool) "register error found" true (Validate.check p <> [])

let test_validate_bad_label () =
  let bad =
    {
      Ir.mid = 0;
      mname = "bad";
      nargs = 0;
      nregs = 1;
      blocks = [| { Ir.instrs = [||]; term = Ir.Jump 7 } |];
    }
  in
  let p = { Ir.pname = "p"; methods = [| bad |]; classes = [||]; main = 0 } in
  Alcotest.(check bool) "label error found" true (Validate.check p <> [])

let test_validate_arity_mismatch () =
  let callee =
    { Ir.mid = 0; mname = "f"; nargs = 2; nregs = 2;
      blocks = [| { Ir.instrs = [||]; term = Ir.Ret 0 } |] }
  in
  let caller =
    { Ir.mid = 1; mname = "main"; nargs = 0; nregs = 2;
      blocks = [| { Ir.instrs = [| Ir.Const (0, 1); Ir.Call (1, 0, [| 0 |]) |]; term = Ir.Ret 1 } |] }
  in
  let p = { Ir.pname = "p"; methods = [| callee; caller |]; classes = [||]; main = 1 } in
  Alcotest.(check bool) "arity error found" true
    (List.exists (fun e ->
         String.length e.Validate.what >= 5 && String.sub e.Validate.what 0 5 = "block")
       (Validate.check p)
    || Validate.check p <> [])

let test_validate_main_with_args_rejected () =
  let m =
    { Ir.mid = 0; mname = "main"; nargs = 1; nregs = 1;
      blocks = [| { Ir.instrs = [||]; term = Ir.Ret 0 } |] }
  in
  let p = { Ir.pname = "p"; methods = [| m |]; classes = [||]; main = 0 } in
  Alcotest.(check bool) "main arity error" true (Validate.check p <> [])

let test_validate_accepts_workloads () =
  List.iter
    (fun bm ->
      let p = Inltune_workloads.Suites.program bm in
      Alcotest.(check (list string))
        (bm.Inltune_workloads.Suites.bname ^ " validates")
        []
        (List.map (fun e -> e.Validate.where ^ ": " ^ e.Validate.what) (Validate.check p)))
    Inltune_workloads.Suites.all

(* --- size --- *)

let test_size_positive_and_monotone () =
  let p = tiny_program () in
  let s0 = Size.of_method p.Ir.methods.(0) in
  let s1 = Size.of_method p.Ir.methods.(1) in
  Alcotest.(check bool) "positive" true (s0 > 0 && s1 > 0);
  Alcotest.(check int) "program = sum" (s0 + s1) (Size.of_program p)

let test_size_call_weighting () =
  let call = Ir.Call (0, 0, [| 1; 2 |]) in
  let mv = Ir.Move (0, 1) in
  Alcotest.(check bool) "calls cost more than moves" true
    (Size.instr_weight call > Size.instr_weight mv)

let test_code_bytes_scales () =
  let p = tiny_program () in
  let m = p.Ir.methods.(0) in
  Alcotest.(check int) "expansion x2" (2 * Size.code_bytes ~expansion:4 m)
    (Size.code_bytes ~expansion:8 m)

(* --- callgraph --- *)

let test_callgraph_tiny () =
  let p = tiny_program () in
  let cg = Callgraph.build p in
  Alcotest.(check (list int)) "main calls add3" [ 0 ] (Callgraph.callees cg 1);
  Alcotest.(check (list int)) "add3 called by main" [ 1 ] (Callgraph.callers cg 0);
  Alcotest.(check (list int)) "reachable" [ 0; 1 ] (Callgraph.reachable cg 1);
  Alcotest.(check bool) "main not recursive" false (Callgraph.recursive cg 1)

let test_callgraph_recursive_detected () =
  let b = B.create "rec" in
  let f = B.declare b ~name:"f" ~nargs:1 in
  B.define b f (fun mb ->
      let r = B.call mb f [ 0 ] in
      B.ret mb r);
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let z = B.const mb 0 in
        let r = B.call mb f [ z ] in
        B.ret mb r)
  in
  B.set_main b main;
  let p = B.finish b in
  let cg = Callgraph.build p in
  Alcotest.(check bool) "f recursive" true (Callgraph.recursive cg f);
  Alcotest.(check bool) "main not recursive" false (Callgraph.recursive cg main)

let test_callgraph_virtual_over_approx () =
  let b = B.create "virt" in
  let impl =
    B.method_ b ~name:"impl" ~nargs:1 (fun mb -> B.ret mb 0)
  in
  let k = B.new_class b ~name:"k" ~vtable:[| impl |] in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let o = B.alloc mb k ~slots:1 in
        let r = B.call_virt mb ~slot:0 o [] in
        B.ret mb r)
  in
  B.set_main b main;
  let p = B.finish b in
  let cg = Callgraph.build p in
  Alcotest.(check (list int)) "virtual edge found" [ impl ] (Callgraph.callees cg main)

let test_call_site_count () =
  let p = tiny_program () in
  Alcotest.(check int) "one call site" 1 (Callgraph.call_site_count p)

(* --- pp --- *)

let contains_substring hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_pp_smoke () =
  let p = tiny_program () in
  let s = Pp.program_to_string p in
  Alcotest.(check bool) "mentions main" true (contains_substring s "main");
  Alcotest.(check bool) "mentions call" true (contains_substring s "call")

(* --- random generator sanity --- *)

let test_random_programs_validate () =
  for seed = 0 to 49 do
    let p = Gen_random.program seed in
    match Validate.check p with
    | [] -> ()
    | e :: _ ->
      Alcotest.failf "seed %d: %s: %s" seed e.Validate.where e.Validate.what
  done

let test_random_program_deterministic () =
  let a = Gen_random.program 123 and b = Gen_random.program 123 in
  Alcotest.(check bool) "same seed, same program" true (a = b)

let suite =
  [
    ("builder tiny program", `Quick, test_builder_tiny);
    ("builder requires main", `Quick, test_builder_requires_main);
    ("builder rejects undefined methods", `Quick, test_builder_rejects_undefined);
    ("builder rejects unterminated blocks", `Quick, test_builder_rejects_unterminated);
    ("builder rejects double define", `Quick, test_builder_rejects_double_define);
    ("builder rejects emit after terminate", `Quick, test_builder_emit_after_terminate_rejected);
    ("builder for_loop structure", `Quick, test_builder_for_loop_structure);
    ("validate flags bad register", `Quick, test_validate_bad_register);
    ("validate flags bad label", `Quick, test_validate_bad_label);
    ("validate flags arity mismatch", `Quick, test_validate_arity_mismatch);
    ("validate rejects main with args", `Quick, test_validate_main_with_args_rejected);
    ("validate accepts all workloads", `Slow, test_validate_accepts_workloads);
    ("size positive and additive", `Quick, test_size_positive_and_monotone);
    ("size weights calls heavier", `Quick, test_size_call_weighting);
    ("code bytes scale with expansion", `Quick, test_code_bytes_scales);
    ("callgraph tiny program", `Quick, test_callgraph_tiny);
    ("callgraph detects recursion", `Quick, test_callgraph_recursive_detected);
    ("callgraph over-approximates virtuals", `Quick, test_callgraph_virtual_over_approx);
    ("callgraph call-site count", `Quick, test_call_site_count);
    ("pp smoke", `Quick, test_pp_smoke);
    ("random programs validate", `Quick, test_random_programs_validate);
    ("random generator deterministic", `Quick, test_random_program_deterministic);
  ]

(* --- Defuse (definite assignment) --- *)

let test_defuse_clean_program () =
  let p = tiny_program () in
  Alcotest.(check int) "no issues" 0 (List.length (Defuse.check_program p))

let test_defuse_flags_read_before_write () =
  let m =
    {
      Ir.mid = 0; mname = "m"; nargs = 0; nregs = 2;
      blocks = [| { Ir.instrs = [| Ir.Move (1, 0) |]; term = Ir.Ret 1 } |];
    }
  in
  match Defuse.check m with
  | [ { Defuse.iblock = 0; iindex = 0; ireg = 0 } ] -> ()
  | issues -> Alcotest.failf "expected one issue, got %d" (List.length issues)

let test_defuse_one_armed_definition_flagged () =
  (* r1 written only on the then-path; the join read must be flagged. *)
  let m =
    {
      Ir.mid = 0; mname = "m"; nargs = 1; nregs = 2;
      blocks =
        [|
          { Ir.instrs = [||]; term = Ir.Branch (0, 1, 2) };
          { Ir.instrs = [| Ir.Const (1, 5) |]; term = Ir.Jump 3 };
          { Ir.instrs = [||]; term = Ir.Jump 3 };
          { Ir.instrs = [||]; term = Ir.Ret 1 };
        |];
    }
  in
  Alcotest.(check bool) "flagged" true
    (List.exists (fun i -> i.Defuse.ireg = 1 && i.Defuse.iblock = 3) (Defuse.check m))

let test_defuse_both_arms_ok () =
  let m =
    {
      Ir.mid = 0; mname = "m"; nargs = 1; nregs = 2;
      blocks =
        [|
          { Ir.instrs = [||]; term = Ir.Branch (0, 1, 2) };
          { Ir.instrs = [| Ir.Const (1, 5) |]; term = Ir.Jump 3 };
          { Ir.instrs = [| Ir.Const (1, 6) |]; term = Ir.Jump 3 };
          { Ir.instrs = [||]; term = Ir.Ret 1 };
        |];
    }
  in
  Alcotest.(check int) "clean" 0 (List.length (Defuse.check m))

let test_defuse_unreachable_not_flagged () =
  let m =
    {
      Ir.mid = 0; mname = "m"; nargs = 0; nregs = 2;
      blocks =
        [|
          { Ir.instrs = [| Ir.Const (0, 1) |]; term = Ir.Ret 0 };
          (* unreachable block reading an unwritten register *)
          { Ir.instrs = [| Ir.Move (0, 1) |]; term = Ir.Ret 0 };
        |];
    }
  in
  Alcotest.(check int) "unreachable ignored" 0 (List.length (Defuse.check m))

let test_defuse_loop_carried_ok () =
  let b = B.create "dl" in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let acc = B.fresh_reg mb in
        B.emit mb (Ir.Const (acc, 0));
        let n = B.const mb 5 in
        B.for_loop mb ~n (fun i -> B.emit mb (Ir.Binop (Ir.Add, acc, acc, i)));
        B.ret mb acc)
  in
  B.set_main b main;
  let p = B.finish b in
  Alcotest.(check int) "loop clean" 0 (List.length (Defuse.check_program p))

let test_defuse_all_workloads_clean () =
  List.iter
    (fun bm ->
      let p = Inltune_workloads.Suites.program bm in
      Alcotest.(check int)
        (bm.Inltune_workloads.Suites.bname ^ " obeys define-before-use")
        0
        (List.length (Defuse.check_program p)))
    Inltune_workloads.Suites.all

let defuse_suite =
  [
    ("defuse: clean program", `Quick, test_defuse_clean_program);
    ("defuse: read before write flagged", `Quick, test_defuse_flags_read_before_write);
    ("defuse: one-armed definition flagged", `Quick, test_defuse_one_armed_definition_flagged);
    ("defuse: both arms defined ok", `Quick, test_defuse_both_arms_ok);
    ("defuse: unreachable code ignored", `Quick, test_defuse_unreachable_not_flagged);
    ("defuse: loop-carried accumulator ok", `Quick, test_defuse_loop_carried_ok);
    ("defuse: all workloads clean", `Quick, test_defuse_all_workloads_clean);
  ]

let suite = suite @ defuse_suite

(* --- Text format --- *)

let test_text_roundtrip_tiny () =
  let p = tiny_program () in
  match Text.parse (Text.to_string p) with
  | Ok p' -> Alcotest.(check bool) "roundtrip equal" true (p = p')
  | Error e -> Alcotest.failf "parse failed at line %d: %s" e.Text.line e.Text.msg

let test_text_roundtrip_all_workloads () =
  List.iter
    (fun bm ->
      let p = Inltune_workloads.Suites.program bm in
      match Text.parse (Text.to_string p) with
      | Ok p' ->
        Alcotest.(check bool) (bm.Inltune_workloads.Suites.bname ^ " roundtrips") true (p = p')
      | Error e -> Alcotest.failf "parse failed at line %d: %s" e.Text.line e.Text.msg)
    Inltune_workloads.Suites.all

let test_text_parse_handwritten () =
  let src = {|
# a handwritten program: print 42, return 43
program hello
method main args 0 regs 3
block
  const r0 42
  print r0
  const r1 1
  add r2 r0 r1
  ret r2
main m0
|}
  in
  let p = Text.parse_exn src in
  let ret, outputs = Inltune_vm.Runner.observe Inltune_vm.Platform.x86 p in
  Alcotest.(check int) "returns 43" 43 ret;
  Alcotest.(check (array int)) "prints 42" [| 42 |] outputs

let test_text_parse_rejects_garbage () =
  let bad = "program x\nmethod main args 0 regs 1\nblock\n  frobnicate r0\n  ret r0\nmain m0\n" in
  (match Text.parse bad with
  | Error { Text.line = 4; _ } -> ()
  | Error e -> Alcotest.failf "wrong location: line %d" e.Text.line
  | Ok _ -> Alcotest.fail "garbage accepted")

let test_text_parse_rejects_unterminated_block () =
  let bad = "program x\nmethod main args 0 regs 1\nblock\n  const r0 1\nmain m0\n" in
  match Text.parse bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated block accepted"

let test_text_parse_validates () =
  (* Structurally parses but fails validation: jump out of range. *)
  let bad = "program x\nmethod main args 0 regs 1\nblock\n  const r0 1\n  jump 9\nmain m0\n" in
  match Text.parse bad with
  | Error { Text.line = 0; _ } -> ()
  | Error e -> Alcotest.failf "expected validation error, got line %d: %s" e.Text.line e.Text.msg
  | Ok _ -> Alcotest.fail "invalid program accepted"

(* A negative callvirt slot in a program with classes is a validation
   error, not an exception out of the parser. *)
let test_text_parse_negative_vtable_slot () =
  let b = B.create "negslot" in
  let impl = B.method_ b ~name:"impl" ~nargs:1 (fun mb -> B.ret mb 0) in
  let k = B.new_class b ~name:"k" ~vtable:[| impl |] in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let o = B.alloc mb k ~slots:1 in
        B.ret mb (B.call_virt mb ~slot:0 o []))
  in
  B.set_main b main;
  let p = B.finish b in
  let negate = function Ir.CallVirt (d, _, r, a) -> Ir.CallVirt (d, -1, r, a) | i -> i in
  let p =
    {
      p with
      Ir.methods =
        Array.map
          (fun m ->
            {
              m with
              Ir.blocks =
                Array.map
                  (fun blk -> { blk with Ir.instrs = Array.map negate blk.Ir.instrs })
                  m.Ir.blocks;
            })
          p.Ir.methods;
    }
  in
  match Text.parse (Text.to_string p) with
  | Error { Text.line = 0; msg } ->
    Alcotest.(check bool) ("names the slot: " ^ msg) true
      (String.ends_with ~suffix:"negative vtable slot" msg)
  | Error e -> Alcotest.failf "expected validation error, got line %d: %s" e.Text.line e.Text.msg
  | Ok _ -> Alcotest.fail "negative vtable slot accepted"

let text_suite =
  [
    ("text roundtrip tiny", `Quick, test_text_roundtrip_tiny);
    ("text roundtrip all workloads", `Slow, test_text_roundtrip_all_workloads);
    ("text parse handwritten program", `Quick, test_text_parse_handwritten);
    ("text parse rejects garbage with location", `Quick, test_text_parse_rejects_garbage);
    ("text parse rejects unterminated block", `Quick, test_text_parse_rejects_unterminated_block);
    ("text parse validates", `Quick, test_text_parse_validates);
    ("text parse rejects a negative vtable slot", `Quick, test_text_parse_negative_vtable_slot);
  ]

let suite = suite @ text_suite
