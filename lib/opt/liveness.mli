open Inltune_jir
(** Global register liveness: the backward dataflow both {!Dce} and
    {!Constprop} run, computed once per call to its unique least fixpoint.

    Live sets are bit vectors packed 63 registers to an [int]; a method's
    live-in sets are one flat array of [nblocks * words] ints, block [b]'s
    slice starting at [b * words]. *)

type t = {
  words : int;          (** ints per bit vector *)
  live_in : int array;  (** registers live on entry to each block *)
}

(** [analyze m] computes [m]'s live-in sets.  Every block is analysed,
    reachable or not.  O(blocks × registers / 63) space; callers guard
    against oversized methods with their own budgets. *)
val analyze : Ir.methd -> t

(** [live_out t v term] overwrites the [words]-long vector [v] with the
    live-out set of a block ending in [term]: the union of its successors'
    live-in sets. *)
val live_out : t -> int array -> Ir.terminator -> unit

(** [live_in_lists t ~nblocks] flattens the live-in sets of [t]'s
    [nblocks] blocks into [(offsets, regs)]: block [b]'s live-in registers
    are [regs.(offsets.(b)) .. regs.(offsets.(b+1) - 1)], in ascending
    order. *)
val live_in_lists : t -> nblocks:int -> int array * int array

(** {2 Bit-vector primitives} on a [words]-long vector at offset 0. *)

val mem : int array -> Ir.reg -> bool

(** Step a live set backward over an instruction: kill its definition, then
    add its uses. *)
val transfer_instr : int array -> Ir.instr -> unit

(** Add a terminator's uses. *)
val transfer_term : int array -> Ir.terminator -> unit
