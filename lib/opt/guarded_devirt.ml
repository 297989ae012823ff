open Inltune_jir
module Vec = Inltune_support.Vec

(* Profile-guided guarded devirtualization.

   When the adaptive system recompiles a method, the profile may show that a
   virtual call site only ever dispatched to one receiver class.  In that
   case the site is rewritten into a class guard:

       r = classof recv
       if r == K then  dst = call K.impl(recv, args)   (inlinable!)
       else            dst = callvirt recv.[slot](args)

   This is the polymorphic-inline-cache-style optimization Jikes RVM applies
   before inlining; it matters to the tuned heuristic because the guarded
   static call becomes an ordinary inlining candidate whose size counts
   against CALLER_MAX_SIZE.  Semantics are preserved unconditionally: a
   wrong (stale) profile just falls through to the virtual call. *)

type site_oracle = site_owner:Ir.mid -> slot:int -> Ir.kid option

(* Build the oracle from an adaptive profile: the site is monomorphic if,
   among the slot's possible implementations, exactly one was ever called
   from [site_owner], and exactly one class provides it on that slot. *)
let oracle_of_profile ~program ~edge_count : site_oracle =
 fun ~site_owner ~slot ->
  let impls = Hashtbl.create 8 in
  Array.iter
    (fun k ->
      if slot < Array.length k.Ir.vtable then begin
        let impl = k.Ir.vtable.(slot) in
        let kids = Option.value ~default:[] (Hashtbl.find_opt impls impl) in
        Hashtbl.replace impls impl (k.Ir.kid :: kids)
      end)
    program.Ir.classes;
  let called =
    Hashtbl.fold
      (fun impl kids acc ->
        if edge_count ~site_owner ~callee:impl > 0 then (impl, kids) :: acc else acc)
      impls []
  in
  match called with
  | [ (_, [ kid ]) ] -> Some kid
  | _ -> None

type stats = { mutable sites_guarded : int }

let run ~program ~(oracle : site_oracle) m =
  let stats = { sites_guarded = 0 } in
  let has_virt =
    Array.exists
      (fun blk ->
        Array.exists (fun i -> match i with Ir.CallVirt _ -> true | _ -> false) blk.Ir.instrs)
      m.Ir.blocks
  in
  if not has_virt then (m, stats)
  else begin
    let nregs = ref m.Ir.nregs in
    let fresh () =
      let r = !nregs in
      incr nregs;
      r
    in
    (* Pending output blocks; the first |blocks| mirror the input labels. *)
    let out : (Ir.instr Vec.t * Ir.terminator option ref) Vec.t = Vec.create () in
    let new_block () =
      Vec.push out (Vec.create (), ref None);
      Vec.length out - 1
    in
    Array.iter (fun _ -> ignore (new_block ())) m.Ir.blocks;
    let cur = ref 0 in
    let push i = Vec.push (fst (Vec.get out !cur)) i in
    let terminate t = snd (Vec.get out !cur) := Some t in
    Array.iteri
      (fun bi blk ->
        cur := bi;
        Array.iter
          (fun i ->
            match i with
            | Ir.CallVirt (dst, slot, recv, args) -> (
              match oracle ~site_owner:m.Ir.mid ~slot with
              | Some kid when slot < Array.length program.Ir.classes.(kid).Ir.vtable ->
                stats.sites_guarded <- stats.sites_guarded + 1;
                let target = program.Ir.classes.(kid).Ir.vtable.(slot) in
                let c = fresh () and k = fresh () and eq = fresh () in
                push (Ir.ClassOf (c, recv));
                push (Ir.Const (k, kid));
                push (Ir.Cmp (Ir.Eq, eq, c, k));
                let then_b = new_block () in
                let else_b = new_block () in
                let cont = new_block () in
                terminate (Ir.Branch (eq, then_b, else_b));
                cur := then_b;
                push (Ir.Call (dst, target, Array.append [| recv |] args));
                terminate (Ir.Jump cont);
                cur := else_b;
                push (Ir.CallVirt (dst, slot, recv, args));
                terminate (Ir.Jump cont);
                cur := cont
              | _ -> push i)
            | _ -> push i)
          blk.Ir.instrs;
        terminate blk.Ir.term)
      m.Ir.blocks;
    (* Guarding nothing rebuilt [m] block for block: hand back [m] itself,
       so later passes (and the fact table) see the original method. *)
    if stats.sites_guarded = 0 then (m, stats)
    else
      let blocks =
        Array.map
          (fun (instrs, term) ->
            match !term with
            | None -> assert false
            | Some t -> { Ir.instrs = Vec.to_array instrs; term = t })
          (Vec.to_array out)
      in
      ({ m with Ir.nregs = !nregs; blocks }, stats)
  end
