(* Structural well-formedness of programs.  Run by tests after every program
   generator and after every optimizer pass: a pass that produces an invalid
   program is a bug regardless of what the interpreter happens to do. *)

type error = { where : string; what : string }

let err where fmt = Printf.ksprintf (fun what -> { where; what }) fmt

(* Strings are formatted only for an error, and operands are read without
   building lists: every VM validates its program at creation, and a
   well-formed one costs a few words per method. *)
let check_method p m errors =
  let nblocks = Array.length m.Ir.blocks and nregs = m.Ir.nregs in
  let fail fmt =
    Printf.ksprintf
      (fun what ->
        let where = Printf.sprintf "method %d (%s)" m.Ir.mid m.Ir.mname in
        errors := { where; what } :: !errors)
      fmt
  in
  if nblocks = 0 then fail "no blocks";
  if m.Ir.nargs > nregs then fail "nargs %d > nregs %d" m.Ir.nargs nregs;
  let bi = ref 0 in
  let check_reg r =
    if r < 0 || r >= nregs then fail "block %d: register %d out of range [0,%d)" !bi r nregs
  in
  let check_label l =
    if l < 0 || l >= nblocks then fail "block %d: label %d out of range [0,%d)" !bi l nblocks
  in
  let check_target callee nargs_given =
    if callee < 0 || callee >= Array.length p.Ir.methods then
      fail "block %d: method id %d out of range" !bi callee
    else begin
      let callee_m = p.Ir.methods.(callee) in
      if callee_m.Ir.nargs <> nargs_given then
        fail "block %d: arity mismatch calling %s (%d given, %d expected)" !bi callee_m.Ir.mname
          nargs_given callee_m.Ir.nargs
    end
  in
  for b = 0 to nblocks - 1 do
    bi := b;
    let blk = m.Ir.blocks.(b) in
    for k = 0 to Array.length blk.Ir.instrs - 1 do
      let i = blk.Ir.instrs.(k) in
      (* [def_reg] returns a destination as it is, out of range too; only
         these three have none. *)
      (match i with Ir.Store _ | Ir.StoreIdx _ | Ir.Print _ -> () | _ -> check_reg (Ir.def_reg i));
      Ir.iter_uses check_reg i;
      match i with
      | Ir.Call (_, callee, args) -> check_target callee (Array.length args)
      | Ir.CallVirt (_, slot, _, args) ->
        if slot < 0 then fail "block %d: negative vtable slot" !bi
        else
          for c = 0 to Array.length p.Ir.classes - 1 do
            let vtable = p.Ir.classes.(c).Ir.vtable in
            if slot < Array.length vtable then check_target vtable.(slot) (1 + Array.length args)
          done
      | Ir.Alloc (_, kid, slots) ->
        if kid < 0 || kid >= Array.length p.Ir.classes then
          fail "block %d: class id %d out of range" !bi kid;
        if slots < 0 then fail "block %d: negative slot count" !bi
      | Ir.Load (_, _, off) | Ir.Store (_, off, _) ->
        if off < 1 then fail "block %d: field offset %d < 1 (slot 0 is the header)" !bi off
      | _ -> ()
    done;
    match blk.Ir.term with
    | Ir.Jump l -> check_label l
    | Ir.Branch (c, t, f) ->
      check_reg c;
      check_label t;
      check_label f
    | Ir.Ret r -> check_reg r
  done

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

let check_exn p =
  match check p with
  | [] -> ()
  | { where; what } :: _ as es ->
    invalid_arg
      (Printf.sprintf "Validate: %d error(s); first: %s: %s" (List.length es) where what)
