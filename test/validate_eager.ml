open Inltune_jir

(* [Validate.check] as it was before it formatted strings only for errors
   and stopped building operand lists, kept verbatim (apart from the
   negative-slot guard, without which a negative [callvirt] slot raised
   [index out of bounds]) as the oracle the rewrite is checked against:
   same errors, same order, same messages. *)

let err where fmt = Printf.ksprintf (fun what -> { Validate.where; what }) fmt

let check_method p m errors =
  let where = Printf.sprintf "method %d (%s)" m.Ir.mid m.Ir.mname in
  let nblocks = Array.length m.Ir.blocks in
  let push e = errors := e :: !errors in
  if nblocks = 0 then push (err where "no blocks");
  if m.Ir.nargs > m.Ir.nregs then push (err where "nargs %d > nregs %d" m.Ir.nargs m.Ir.nregs);
  let check_reg ctx r =
    if r < 0 || r >= m.Ir.nregs then push (err where "%s: register %d out of range [0,%d)" ctx r m.Ir.nregs)
  in
  let check_label ctx l =
    if l < 0 || l >= nblocks then push (err where "%s: label %d out of range [0,%d)" ctx l nblocks)
  in
  let check_target ctx callee nargs_given =
    if callee < 0 || callee >= Array.length p.Ir.methods then
      push (err where "%s: method id %d out of range" ctx callee)
    else begin
      let callee_m = p.Ir.methods.(callee) in
      if callee_m.Ir.nargs <> nargs_given then
        push
          (err where "%s: arity mismatch calling %s (%d given, %d expected)" ctx callee_m.Ir.mname
             nargs_given callee_m.Ir.nargs)
    end
  in
  Array.iteri
    (fun bi blk ->
      let ctx = Printf.sprintf "block %d" bi in
      Array.iter
        (fun i ->
          (match Ir.def_of i with Some d -> check_reg ctx d | None -> ());
          List.iter (check_reg ctx) (Ir.uses_of i);
          begin match i with
          | Ir.Call (_, callee, args) -> check_target ctx callee (Array.length args)
          | Ir.CallVirt (_, slot, _, args) ->
            if slot < 0 then push (err where "%s: negative vtable slot" ctx);
            Array.iter
              (fun k ->
                if slot >= 0 && slot < Array.length k.Ir.vtable then
                  check_target ctx k.Ir.vtable.(slot) (1 + Array.length args))
              p.Ir.classes
          | Ir.Alloc (_, kid, slots) ->
            if kid < 0 || kid >= Array.length p.Ir.classes then
              push (err where "%s: class id %d out of range" ctx kid);
            if slots < 0 then push (err where "%s: negative slot count" ctx)
          | Ir.Load (_, _, off) | Ir.Store (_, off, _) ->
            if off < 1 then push (err where "%s: field offset %d < 1 (slot 0 is the header)" ctx off)
          | _ -> ()
          end)
        blk.Ir.instrs;
      List.iter (check_reg ctx) (Ir.term_uses blk.Ir.term);
      List.iter (check_label ctx) (Ir.successors blk.Ir.term))
    m.Ir.blocks

let check p =
  let errors = ref [] in
  let n = Array.length p.Ir.methods in
  Array.iteri
    (fun i m ->
      if m.Ir.mid <> i then errors := err "program" "method at index %d has mid %d" i m.Ir.mid :: !errors;
      check_method p m errors)
    p.Ir.methods;
  Array.iteri
    (fun i k ->
      if k.Ir.kid <> i then errors := err "program" "class at index %d has kid %d" i k.Ir.kid :: !errors;
      Array.iter
        (fun mid ->
          if mid < 0 || mid >= n then
            errors := err ("class " ^ k.Ir.kname) "vtable entry %d out of range" mid :: !errors)
        k.Ir.vtable)
    p.Ir.classes;
  if p.Ir.main < 0 || p.Ir.main >= n then errors := err "program" "main %d out of range" p.Ir.main :: !errors
  else if p.Ir.methods.(p.Ir.main).Ir.nargs <> 0 then
    errors := err "program" "main must take no arguments" :: !errors;
  List.rev !errors
