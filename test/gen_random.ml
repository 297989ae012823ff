open Inltune_jir
module B = Builder
module Rng = Inltune_support.Rng

(* Random well-formed JIR programs for property-based testing.

   Guarantees, by construction:
   - define-before-use: every register read was written on every path first
     (diamond arms write a pre-reserved join register on both sides);
   - termination: methods only call methods with a *larger* id, so the call
     graph is a DAG, and loops have constant trip counts;
   - memory safety: object registers are tracked separately from data
     registers, loads/stores only target live objects with in-range slots,
     and addresses never flow into arithmetic or prints (so optimizations
     that remove dead allocations cannot perturb observable behaviour). *)

let slots = 3

type pools = {
  mutable data : Ir.reg list;     (* defined integer registers *)
  mutable objects : Ir.reg list;  (* defined object registers *)
}

let pick_data rng pools = List.nth pools.data (Rng.int rng (List.length pools.data))

let random_binop rng =
  Rng.pick rng [| Ir.Add; Ir.Sub; Ir.Mul; Ir.Div; Ir.Mod; Ir.And; Ir.Or; Ir.Xor; Ir.Shl; Ir.Shr |]

let random_cmpop rng = Rng.pick rng [| Ir.Lt; Ir.Le; Ir.Eq; Ir.Ne; Ir.Gt; Ir.Ge |]

(* One straight-line-ish statement; may create blocks (diamond, loop). *)
let rec emit_stmt mb rng pools ~callees ~has_class ~depth =
  let data r = pools.data <- r :: pools.data in
  match Rng.int rng 13 with
  | 0 -> data (B.const mb (Rng.range rng (-100) 100))
  | 1 ->
    let a = pick_data rng pools and b = pick_data rng pools in
    data (B.binop mb (random_binop rng) a b)
  | 2 ->
    let a = pick_data rng pools and b = pick_data rng pools in
    data (B.cmp mb (random_cmpop rng) a b)
  | 3 -> data (B.move mb (pick_data rng pools))
  | 4 ->
    let o = B.alloc mb 0 ~slots in
    pools.objects <- o :: pools.objects
  | 5 when pools.objects <> [] ->
    let o = List.nth pools.objects (Rng.int rng (List.length pools.objects)) in
    if Rng.bool rng then data (B.load mb o (1 + Rng.int rng slots))
    else B.store mb o (1 + Rng.int rng slots) (pick_data rng pools)
  | 11 when pools.objects <> [] ->
    let o = List.nth pools.objects (Rng.int rng (List.length pools.objects)) in
    data (B.class_of mb o)
  | 6 when pools.objects <> [] ->
    let o = List.nth pools.objects (Rng.int rng (List.length pools.objects)) in
    let idx = B.const mb (Rng.int rng slots) in
    if Rng.bool rng then data (B.load_idx mb o idx)
    else B.store_idx mb o idx (pick_data rng pools)
  | 7 when callees <> [] ->
    let callee = List.nth callees (Rng.int rng (List.length callees)) in
    let a = pick_data rng pools and b = pick_data rng pools in
    data (B.call mb callee [ a; b ])
  | 8 when has_class && pools.objects <> [] ->
    let o = List.nth pools.objects (Rng.int rng (List.length pools.objects)) in
    data (B.call_virt mb ~slot:0 o [ pick_data rng pools ])
  | 9 -> B.print mb (pick_data rng pools)
  | 10 when depth < 2 ->
    (* Diamond with a join register written on both paths. *)
    let join = B.fresh_reg mb in
    let c = pick_data rng pools in
    let arm () =
      let saved_objects = pools.objects in
      for _ = 1 to 1 + Rng.int rng 2 do
        emit_stmt mb rng pools ~callees ~has_class ~depth:(depth + 1)
      done;
      B.emit mb (Ir.Move (join, pick_data rng pools));
      (* Registers defined inside an arm are not defined on the other path:
         roll the pools back to the pre-branch state. *)
      pools.objects <- saved_objects
    in
    let saved_data = pools.data in
    B.if_ mb c
      ~then_:(fun () ->
        arm ();
        pools.data <- saved_data)
      ~else_:(fun () ->
        arm ();
        pools.data <- saved_data);
    pools.data <- join :: saved_data
  | _ when depth < 2 ->
    (* Constant-bound loop accumulating into a pre-defined register. *)
    let acc = B.fresh_reg mb in
    B.emit mb (Ir.Const (acc, Rng.range rng 0 10));
    let n = B.const mb (1 + Rng.int rng 4) in
    let saved_data = pools.data in
    let saved_objects = pools.objects in
    B.for_loop mb ~n (fun i ->
        pools.data <- i :: pools.data;
        for _ = 1 to 1 + Rng.int rng 2 do
          emit_stmt mb rng pools ~callees ~has_class ~depth:(depth + 1)
        done;
        B.emit mb (Ir.Binop (Ir.Add, acc, acc, pick_data rng pools));
        pools.data <- saved_data;
        pools.objects <- saved_objects);
    pools.data <- acc :: saved_data
  | _ -> data (B.const mb (Rng.range rng 0 7))

(* [receiver]: the method is the class's virtual target, so register 0 is
   the receiver — a heap address on virtual calls — and stays out of the
   data pool (static calls pass data there, which is then never read). *)
let fill_body mb rng ~nargs ~callees ~has_class ~receiver =
  let first_data = if receiver then 1 else 0 in
  let pools = { data = List.init (nargs - first_data) (fun i -> first_data + i); objects = [] } in
  (* Ensure the data pool is never empty. *)
  pools.data <- B.const mb (Rng.range rng 1 9) :: pools.data;
  let n = 4 + Rng.int rng 18 in
  for _ = 1 to n do
    emit_stmt mb rng pools ~callees ~has_class ~depth:0
  done;
  B.ret mb (pick_data rng pools)

(* Generate a program from a seed.  [max_methods] bounds the method count. *)
let program ?(max_methods = 6) seed =
  let rng = Rng.create seed in
  let b = B.create (Printf.sprintf "random_%d" seed) in
  let nmethods = 2 + Rng.int rng (max 1 (max_methods - 1)) in
  let mids = Array.init nmethods (fun i ->
      B.declare b ~name:(Printf.sprintf "m%d" i) ~nargs:(if i = 0 then 0 else 2))
  in
  (* A class whose virtual slot points at the last (leaf) method. *)
  let has_class = Rng.bool rng in
  if has_class then ignore (B.new_class b ~name:"k0" ~vtable:[| mids.(nmethods - 1) |])
  else ignore (B.new_class b ~name:"k0" ~vtable:[||]);
  for i = nmethods - 1 downto 0 do
    let callees = List.init (nmethods - 1 - i) (fun j -> mids.(i + 1 + j)) in
    (* Virtual dispatch targets the leaf, which takes 2 args (self + 1). *)
    let receiver = has_class && i = nmethods - 1 in
    let has_class = has_class && nmethods - 1 > i in
    B.define b mids.(i) (fun mb ->
        fill_body mb rng ~nargs:(if i = 0 then 0 else 2) ~callees ~has_class ~receiver)
  done;
  B.set_main b mids.(0);
  B.finish b
