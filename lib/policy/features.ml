open Inltune_jir
open Inltune_opt
open Inltune_vm

(* Call-site feature vectors.  The static half (callee shape, recursion) is
   precomputed per method so per-decision extraction stays O(dim); the
   dynamic half (hotness flag, profiled edge count) reads the profile the
   context carries.  Everything is integral counts encoded as floats, so
   "%.17g" printing is exact and vectors compare bit-for-bit. *)

type mstats = {
  f_args : int;
  f_blocks : int;
  f_branches : int;   (* conditional terminators *)
  f_loops : int;      (* back edges: jump/branch targets <= source block *)
  f_calls : int;      (* static + virtual call instructions *)
  f_recursive : bool; (* can reach itself in the static call graph *)
}

type ctx = {
  per_method : mstats array;
  profile : Profile.t option;
}

let method_stats cg (m : Ir.methd) =
  let branches = ref 0 and loops = ref 0 and calls = ref 0 in
  Array.iteri
    (fun bi blk ->
      Array.iter
        (fun i -> match i with Ir.Call _ | Ir.CallVirt _ -> incr calls | _ -> ())
        blk.Ir.instrs;
      let back l = if l <= bi then incr loops in
      match blk.Ir.term with
      | Ir.Jump l -> back l
      | Ir.Branch (_, t, f) ->
        incr branches;
        back t;
        back f
      | Ir.Ret _ -> ())
    m.Ir.blocks;
  {
    f_args = m.Ir.nargs;
    f_blocks = Array.length m.Ir.blocks;
    f_branches = !branches;
    f_loops = !loops;
    f_calls = !calls;
    f_recursive = Callgraph.recursive cg m.Ir.mid;
  }

(* The static half is a program fact: built once per program value, shared
   by every measurement, dataset labelling and policy decode. *)
let ctx_key =
  Facts.key ~name:"features" (fun f ->
      let p = Facts.program f in
      let cg = Callgraph.build p in
      { per_method = Array.map (method_stats cg) p.Ir.methods; profile = None })

let make_ctx p = Facts.get (Facts.of_program p) ctx_key

let with_profile ctx profile = { ctx with profile = Some profile }

let names =
  [|
    "callee_size";
    "caller_size";
    "inline_depth";
    "hot";
    "callee_args";
    "callee_blocks";
    "callee_branches";
    "callee_loops";
    "callee_calls";
    "callee_recursive";
    "edge_calls";
  |]

let dim = Array.length names

let of_site ctx (s : Policy.site) =
  let m = ctx.per_method.(s.Policy.callee) in
  let edge =
    match ctx.profile with
    | None -> 0
    | Some p -> Profile.edge_count p ~site_owner:s.Policy.owner ~callee:s.Policy.callee
  in
  [|
    Float.of_int s.Policy.callee_size;
    Float.of_int s.Policy.caller_size;
    Float.of_int s.Policy.inline_depth;
    (if s.Policy.hot then 1.0 else 0.0);
    Float.of_int m.f_args;
    Float.of_int m.f_blocks;
    Float.of_int m.f_branches;
    Float.of_int m.f_loops;
    Float.of_int m.f_calls;
    (if m.f_recursive then 1.0 else 0.0);
    Float.of_int edge;
  |]

let vector_to_string x =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.17g") x))

(* Every static call site at depth 1, in (method, block, instruction) order.
   Mirrors what the inliner would see on a fresh compile of each method:
   caller_size is the method's unexpanded size estimate. *)
let of_program ctx (p : Ir.program) =
  let sites = Inltune_support.Vec.create () in
  Array.iter
    (fun (m : Ir.methd) ->
      let caller_size = Size.of_method m in
      Array.iter
        (fun blk ->
          Array.iter
            (fun i ->
              match i with
              | Ir.Call (_, callee, _) ->
                let hot =
                  match ctx.profile with
                  | None -> false
                  | Some prof ->
                    Profile.hot_site prof ~fraction:0.01 ~floor:100 ~site_owner:m.Ir.mid
                      ~callee
                in
                let s =
                  {
                    Policy.owner = m.Ir.mid;
                    callee;
                    callee_size = Size.of_method p.Ir.methods.(callee);
                    inline_depth = 1;
                    caller_size;
                    hot;
                  }
                in
                Inltune_support.Vec.push sites (s, of_site ctx s)
              | _ -> ())
            blk.Ir.instrs)
        m.Ir.blocks)
    p.Ir.methods;
  Inltune_support.Vec.to_array sites
