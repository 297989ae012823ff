open Inltune_jir
(* The shared inline engine: the transformation machinery every inlining
   strategy drives through a first-class {!Policy.t}.

   The splice mirrors what Jikes RVM's optimizing compiler does at
   bytecode-inline time:
   - decisions use the *static* size estimate of the callee's original body,
     the current depth of the inline chain, and the *expanded* size of the
     caller so far (the caller grows as we inline);
   - hot call sites (adaptive scenario, identified by the profile-supplied
     [hot_site] predicate) have their {!Policy.site.hot} flag set — what a
     policy does with it is the policy's business;
   - nested calls inside an inlined body are considered at depth + 1;
   - a method already on the current inline chain is never inlined again
     (recursion guard — Jikes similarly refuses recursive expansion), and a
     hard [max_expanded_size] cap stops pathological growth that a policy's
     own caller-size test would permit.

   Mechanically: output blocks are allocated so the caller's original labels
   are preserved (block i of the input is block i of the output); a call being
   inlined terminates the current output block with a jump to the copied
   callee entry, callee returns become a move to the call's destination plus a
   jump to a fresh continuation block, and filling resumes there.  Most runs
   accept nothing at the root (an inliner put to an already-inlined method,
   a strategy whose budget is spent), so the root's sites are decided
   before any block is built, and such a run returns its input.

   [walk_from] is the decision-procedure-only twin of [run]: over
   call-site tables it visits call sites in exactly the order [run] decides
   them, hot flags included, and reports the effective accept bits without
   building any IR.  [run]'s output is a function of its input method and
   those bits, which makes them a cache key: Fitcache's [w:] signatures
   ([walk]) and the trajectory cache's inliner memo both key on them. *)

module Vec = Inltune_support.Vec
module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event
module Metric = Inltune_obs.Metric

(* Runs that accepted no root site and returned their input. *)
let zero_accept = Metric.handle "engine.zero_accept"

type stats = {
  mutable sites_seen : int;
  mutable sites_inlined : int;
  mutable hot_sites_seen : int;
  mutable hot_sites_inlined : int;
}

let fresh_stats () =
  { sites_seen = 0; sites_inlined = 0; hot_sites_seen = 0; hot_sites_inlined = 0 }

(* Why a call site was (not) inlined: the policy rule that fired, or one of
   the transformation's own guards.  One of these is attached to every
   decision record / "inline.decision" trace event. *)
type reason =
  | Rule of Policy.verdict  (* whatever rule the policy reported *)
  | Recursive               (* callee already on the inline chain *)
  | Space_cap               (* policy said yes, max_expanded_size said no *)

let reason_accepts = function
  | Rule v -> v.Policy.accept
  | Recursive | Space_cap -> false

let reason_name = function
  | Rule v -> v.Policy.rule
  | Recursive -> "recursive"
  | Space_cap -> "space_cap"

(* One record per call site the inliner looked at. *)
type decision = {
  d_site_owner : Ir.mid;
  d_callee : Ir.mid;
  d_callee_size : int;
  d_depth : int;
  d_caller_size : int;
  d_reason : reason;
}

let decision_accepts d = reason_accepts d.d_reason

(* Absolute growth cap, in size-estimate units.  Twice CALLER_MAX_SIZE's
   upper range: a policy's own caller test normally stops expansion first;
   this is the code-space sanity net (Jikes has an equivalent absolute
   limit), and it also bounds the register pressure downstream dataflow
   passes must tolerate. *)
let max_expanded_size = 8_000

type out_block = {
  oi : Ir.instr Vec.t;
  mutable oterm : Ir.terminator option;
}

type ctx = {
  prog : Ir.program;
  policy : Policy.t;
  hot_site : (site_owner:Ir.mid -> callee:Ir.mid -> bool) option;
      (* adaptive scenario: which sites are profile-hot; the flag is passed
         to the policy (the heuristic policy takes the Fig. 4 path on it) *)
  callee_size : Ir.mid -> int;  (* the program's static size estimates *)
  out : out_block Vec.t;
  mutable nregs : int;
  mutable size : int;      (* expanded caller size so far *)
  mutable cur : int;       (* output block being filled *)
  stats : stats;
  log : decision Vec.t option;  (* per-site decision records, when requested *)
  trace_on : bool;              (* Trace.enabled at run start *)
  mutable decided : (reason * bool) list;
      (* verdicts (and hotness) of the root's first call sites, decided
         before the output was built; [emit_instr] replays them in order *)
}

(* Record/emit a per-site decision.  Only called when the caller verified
   [ctx.log <> None || ctx.trace_on], keeping the common path allocation-free. *)
let note_decision ctx ~site_owner ~callee ~callee_size ~depth reason =
  let d =
    {
      d_site_owner = site_owner;
      d_callee = callee;
      d_callee_size = callee_size;
      d_depth = depth;
      d_caller_size = ctx.size;
      d_reason = reason;
    }
  in
  (match ctx.log with Some v -> Vec.push v d | None -> ());
  if ctx.trace_on then
    Trace.emit "inline.decision"
      ~fields:
        [
          ("owner", Event.Str ctx.prog.Ir.methods.(site_owner).Ir.mname);
          ("callee", Event.Str ctx.prog.Ir.methods.(callee).Ir.mname);
          ("callee_size", Event.Int callee_size);
          ("depth", Event.Int depth);
          ("caller_size", Event.Int ctx.size);
          ("accept", Event.Bool (reason_accepts reason));
          ("reason", Event.Str (reason_name reason));
        ]

let new_block ctx =
  Vec.push ctx.out { oi = Vec.create (); oterm = None };
  Vec.length ctx.out - 1

let push ctx i = Vec.push (Vec.get ctx.out ctx.cur).oi i

let terminate ctx t =
  let b = Vec.get ctx.out ctx.cur in
  assert (b.oterm = None);
  b.oterm <- Some t

(* Decide one call site; returns the reason (which implies accept/reject),
   the callee's cached size estimate, and whether the site was hot. *)
let decide ctx ~site_owner ~callee ~depth =
  let callee_size = ctx.callee_size callee in
  ctx.stats.sites_seen <- ctx.stats.sites_seen + 1;
  let hot = match ctx.hot_site with Some f -> f ~site_owner ~callee | None -> false in
  if hot then ctx.stats.hot_sites_seen <- ctx.stats.hot_sites_seen + 1;
  let verdict =
    ctx.policy.Policy.decide
      {
        Policy.owner = site_owner;
        callee;
        callee_size;
        inline_depth = depth;
        caller_size = ctx.size;
        hot;
      }
  in
  let reason =
    if verdict.Policy.accept && ctx.size + callee_size > max_expanded_size then Space_cap
    else Rule verdict
  in
  (reason, callee_size, hot)

(* Copy [body]'s blocks into the output with registers shifted by [base] and
   labels mapped through [label_map]; recursively processes nested calls.
   [chain] is the set of method ids on the current inline chain. *)
let rec splice ctx ~owner ~depth ~chain ~dst body =
  let base = ctx.nregs in
  ctx.nregs <- ctx.nregs + body.Ir.nregs;
  ctx.size <- ctx.size + ctx.callee_size body.Ir.mid;
  let nblocks = Array.length body.Ir.blocks in
  let label_map = Array.init nblocks (fun _ -> new_block ctx) in
  let cont = new_block ctx in
  terminate ctx (Ir.Jump label_map.(0));
  let remap r = r + base in
  fill_blocks ctx ~owner ~depth ~chain ~remap ~label_map
    ~on_ret:(fun r ->
      push ctx (Ir.Move (dst, r));
      terminate ctx (Ir.Jump cont))
    body.Ir.blocks;
  ctx.cur <- cont;
  base

and fill_blocks ctx ~owner ~depth ~chain ~remap ~label_map ~on_ret blocks =
  Array.iteri
    (fun bi blk ->
      ctx.cur <- label_map.(bi);
      Array.iter (fun i -> emit_instr ctx ~owner ~depth ~chain ~remap i) blk.Ir.instrs;
      match blk.Ir.term with
      | Ir.Jump l -> terminate ctx (Ir.Jump label_map.(l))
      | Ir.Branch (c, t, f) -> terminate ctx (Ir.Branch (remap c, label_map.(t), label_map.(f)))
      | Ir.Ret r -> on_ret (remap r))
    blocks

(* The verdict on one call site, recorded and traced when observing: the
   recursion guard (not counted in [sites_seen] — the policy never sees the
   site), else the policy under the [Space_cap] net.  With whether the site
   is hot. *)
and decide_site ctx ~owner ~depth ~chain callee =
  let observing = ctx.trace_on || ctx.log <> None in
  if List.mem callee chain then begin
    if observing then
      note_decision ctx ~site_owner:owner ~callee ~callee_size:(ctx.callee_size callee)
        ~depth:(depth + 1) Recursive;
    (Recursive, false)
  end
  else begin
    let reason, callee_size, hot = decide ctx ~site_owner:owner ~callee ~depth:(depth + 1) in
    if observing then
      note_decision ctx ~site_owner:owner ~callee ~callee_size ~depth:(depth + 1) reason;
    (reason, hot)
  end

and emit_instr ctx ~owner ~depth ~chain ~remap i =
  match i with
  | Ir.Call (dst, callee, args) ->
    let dst = remap dst and args = Array.map remap args in
    let reason, hot =
      match ctx.decided with
      | d :: rest ->
        ctx.decided <- rest;
        d
      | [] -> decide_site ctx ~owner ~depth ~chain callee
    in
    if reason_accepts reason then begin
      ctx.stats.sites_inlined <- ctx.stats.sites_inlined + 1;
      if hot then ctx.stats.hot_sites_inlined <- ctx.stats.hot_sites_inlined + 1;
      let body = ctx.prog.Ir.methods.(callee) in
      (* Bind formal parameters: callee registers 0..nargs-1 live at
         [base..base+nargs-1] after the shift performed by [splice]. *)
      let base_preview = ctx.nregs in
      Array.iteri (fun k a -> push ctx (Ir.Move (base_preview + k, a))) args;
      let base = splice ctx ~owner:callee ~depth:(depth + 1) ~chain:(callee :: chain) ~dst body in
      assert (base = base_preview)
    end
    else push ctx (Ir.Call (dst, callee, args))
  | Ir.CallVirt (dst, slot, recv, args) ->
    (* Virtual sites are never inlined directly; devirtualization (constant
       propagation proving the receiver class) turns them into static calls
       before inlining runs. *)
    push ctx (Ir.CallVirt (remap dst, slot, remap recv, Array.map remap args))
  | Ir.Const (d, n) -> push ctx (Ir.Const (remap d, n))
  | Ir.Move (d, s) -> push ctx (Ir.Move (remap d, remap s))
  | Ir.Binop (op, d, a, b) -> push ctx (Ir.Binop (op, remap d, remap a, remap b))
  | Ir.Cmp (op, d, a, b) -> push ctx (Ir.Cmp (op, remap d, remap a, remap b))
  | Ir.Load (d, o, off) -> push ctx (Ir.Load (remap d, remap o, off))
  | Ir.Store (o, off, s) -> push ctx (Ir.Store (remap o, off, remap s))
  | Ir.LoadIdx (d, o, i2) -> push ctx (Ir.LoadIdx (remap d, remap o, remap i2))
  | Ir.StoreIdx (o, i2, s) -> push ctx (Ir.StoreIdx (remap o, remap i2, remap s))
  | Ir.ClassOf (d, o) -> push ctx (Ir.ClassOf (remap d, remap o))
  | Ir.Alloc (d, k, s) -> push ctx (Ir.Alloc (remap d, k, s))
  | Ir.Print r -> push ctx (Ir.Print (remap r))

(* Decide the root's own call sites in order, up to and including the
   first one accepted: until then nothing is spliced, so the caller size
   each decision sees is the one [fill_blocks] would show it.  [None] when
   no site is accepted.  Then [fill_blocks] would re-emit [m] block for
   block under the identity remap, and every pass is copy-on-write, so [m]
   itself is the output.  Otherwise the verdicts, in order, for
   [emit_instr] to replay: every site is put to the policy once. *)
let decide_root ctx m =
  let owner = m.Ir.mid and chain = [ m.Ir.mid ] in
  let decided = ref [] in
  let exception Accepted in
  match
    Array.iter
      (fun blk ->
        Array.iter
          (function
            | Ir.Call (_, callee, _) ->
              let ((reason, _) as d) = decide_site ctx ~owner ~depth:0 ~chain callee in
              decided := d :: !decided;
              if reason_accepts reason then raise Accepted
            | _ -> ())
          blk.Ir.instrs)
      m.Ir.blocks
  with
  | () -> None
  | exception Accepted -> Some (List.rev !decided)

let run ?hot_site ?decisions ?facts ?size ~program ~policy m =
  let facts = match facts with Some f -> f | None -> Facts.of_program program in
  if Facts.program facts != program then invalid_arg "Engine.run: facts of another program";
  let sizes = Facts.sizes facts in
  let ctx =
    {
      prog = program;
      policy;
      hot_site;
      callee_size = Array.get sizes;
      out = Vec.create ();
      nregs = m.Ir.nregs;
      size = (match size with Some s -> s | None -> Size.of_method m);
      cur = 0;
      stats = fresh_stats ();
      log = decisions;
      trace_on = Trace.enabled ();
      decided = [];
    }
  in
  match decide_root ctx m with
  | None ->
    Metric.bump zero_accept;
    (m, ctx.stats)
  | Some decided ->
    ctx.decided <- decided;
    let nblocks = Array.length m.Ir.blocks in
    let label_map = Array.init nblocks (fun _ -> new_block ctx) in
    fill_blocks ctx ~owner:m.Ir.mid ~depth:0 ~chain:[ m.Ir.mid ] ~remap:(fun r -> r)
      ~label_map
      ~on_ret:(fun r -> terminate ctx (Ir.Ret r))
      m.Ir.blocks;
    let blocks =
      Array.map
        (fun ob ->
          match ob.oterm with
          | None ->
            (* Unreached continuation of a block whose filling ended in
               returns on all paths cannot happen: every output block is
               either a mapped input block (always terminated) or a
               continuation that filling resumed on. *)
            assert false
          | Some t -> { Ir.instrs = Vec.to_array ob.oi; term = t })
        (Vec.to_array ctx.out)
    in
    ({ m with Ir.nregs = ctx.nregs; blocks }, ctx.stats)

(* The call sites the decision walk visits, as flat per-method tables:
   [sizes.(mid)] is the method's static size estimate and [callees.(mid)]
   the callee ids of its [Call] instructions in block-then-instruction
   order — the order [fill_blocks] meets them.  Virtual calls are never
   inlined, so they have no entry. *)
type call_sites = {
  sizes : int array;
  callees : int array array;
}

let callees m =
  let v = Vec.create () in
  Array.iter
    (fun blk ->
      Array.iter (function Ir.Call (_, callee, _) -> Vec.push v callee | _ -> ()) blk.Ir.instrs)
    m.Ir.blocks;
  Vec.to_array v

let call_sites methods =
  { sizes = Array.map Size.of_method methods; callees = Array.map callees methods }

(* The original methods' tables, the callee bodies of every walk. *)
let bodies_key =
  Facts.key ~name:"call_sites" (fun f ->
      { sizes = Facts.sizes f; callees = Array.map callees (Facts.program f).Ir.methods })

let bodies facts = Facts.get facts bodies_key

(* Decision-procedure-only walk: visit call sites in exactly the order
   [run] would and report each policy-decided site's effective accept bit
   to [emit], without building any output IR.  The traversal mirrors the
   transformation precisely — the root's sites are [callees] (owned by
   [mid], as every root site of [run]'s input is, whatever earlier engine
   runs inlined into it), accepted callees are descended into depth-first
   with their original bodies' sites from [bodies], the expanded-size
   accumulator starts at the root's [size] and grows by the callee's
   [bodies] size on acceptance, the recursion guard skips chained callees
   (their outcome is policy-independent, so they contribute no bit),
   [hot_site] sets each decided site's hot flag as [decide] does, and
   [max_expanded_size] turns policy acceptances into rejections the same
   way.

   The bits fully determine the transformed method: the emitted code
   depends only on which sites are expanded.  The tables are built once
   per program, so a walk costs one policy query per visited site and
   nothing per instruction. *)
let walk_from ~bodies ~callees ~size ?hot_site ~policy mid emit =
  let size = ref size in
  let rec visit ~owner ~depth ~chain calls =
    Array.iter
      (fun callee ->
        if not (List.mem callee chain) then begin
          let cs = bodies.sizes.(callee) in
          let hot = match hot_site with Some f -> f ~site_owner:owner ~callee | None -> false in
          let verdict =
            policy.Policy.decide
              {
                Policy.owner;
                callee;
                callee_size = cs;
                inline_depth = depth + 1;
                caller_size = !size;
                hot;
              }
          in
          let accept = verdict.Policy.accept && !size + cs <= max_expanded_size in
          emit accept;
          if accept then begin
            size := !size + cs;
            visit ~owner:callee ~depth:(depth + 1) ~chain:(callee :: chain)
              bodies.callees.(callee)
          end
        end)
      calls
  in
  visit ~owner:mid ~depth:0 ~chain:[ mid ] callees

(* The walk behind Fitcache's [w:] signatures: no site is hot, the bits as
   '1'/'0'. *)
let walk ~bodies ~roots ~policy mid =
  let buf = Buffer.create 16 in
  walk_from ~bodies ~callees:roots.callees.(mid) ~size:roots.sizes.(mid) ~policy mid (fun a ->
      Buffer.add_char buf (if a then '1' else '0'));
  Buffer.contents buf
