open Inltune_jir
open Inltune_vm

(* The list-based linear scan [Regalloc.run] used before it moved onto
   arrays, kept verbatim as the oracle the array version is checked
   against: same intervals, same tie order, same spill choices. *)

let occurrences m =
  (* first.(r), last.(r), count.(r) over a linear numbering; -1 = absent *)
  let n = m.Ir.nregs in
  let first = Array.make n (-1) in
  let last = Array.make n (-1) in
  let count = Array.make n 0 in
  let pos = ref 0 in
  let touch r =
    if first.(r) < 0 then first.(r) <- !pos;
    last.(r) <- !pos;
    count.(r) <- count.(r) + 1
  in
  (* Arguments are live from entry. *)
  for r = 0 to m.Ir.nargs - 1 do
    touch r
  done;
  Array.iter
    (fun blk ->
      Array.iter
        (fun i ->
          incr pos;
          Ir.iter_uses touch i;
          let d = Ir.def_reg i in
          if d >= 0 then touch d)
        blk.Ir.instrs;
      incr pos;
      match blk.Ir.term with
      | Ir.Branch (c, _, _) -> touch c
      | Ir.Ret r -> touch r
      | Ir.Jump _ -> ())
    m.Ir.blocks;
  (first, last, count)

let run ~phys_regs m =
  if phys_regs < 2 then invalid_arg "Regalloc.run: need at least 2 physical registers";
  let first, last, count = occurrences m in
  (* Present registers sorted by interval start, in place.  Ties broken by
     register index — the previous stable [List.sort] over an index-ordered
     list produced exactly that order, and tie order is observable (it decides
     which of two same-start intervals the scan considers first, and hence
     what spills). *)
  let intervals = Array.make m.Ir.nregs 0 in
  let nint = ref 0 in
  for r = 0 to m.Ir.nregs - 1 do
    if first.(r) >= 0 then begin
      intervals.(!nint) <- r;
      incr nint
    end
  done;
  let intervals = Array.sub intervals 0 !nint in
  Array.sort
    (fun a b ->
      let c = Int.compare first.(a) first.(b) in
      if c <> 0 then c else Int.compare a b)
    intervals;
  let vregs = Array.length intervals in
  (* Active list ordered by interval end (kept as a sorted list; methods have
     at most tens of simultaneously live values in practice). *)
  let active = ref [] in
  let max_pressure = ref 0 in
  let spilled = ref 0 in
  let spill_ops = ref 0 in
  let insert_by_end r l =
    let rec go = function
      | x :: rest when last.(x) <= last.(r) -> x :: go rest
      | rest -> r :: rest
    in
    go l
  in
  Array.iter
    (fun r ->
      (* Expire intervals that ended before this one starts. *)
      active := List.filter (fun x -> last.(x) >= first.(r)) !active;
      if List.length !active >= phys_regs then begin
        (* Spill the interval with the furthest end (it blocks the longest). *)
        match List.rev !active with
        | victim :: _ when last.(victim) > last.(r) ->
          active := insert_by_end r (List.filter (fun x -> x <> victim) !active);
          incr spilled;
          spill_ops := !spill_ops + count.(victim)
        | _ ->
          incr spilled;
          spill_ops := !spill_ops + count.(r)
      end
      else active := insert_by_end r !active;
      max_pressure := max !max_pressure (List.length !active + !spilled))
    intervals;
  { Regalloc.vregs; max_pressure = (if vregs = 0 then 0 else max !max_pressure 1); spilled = !spilled; spill_ops = !spill_ops }
