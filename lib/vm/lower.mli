open Inltune_jir

(** Compile-once lowering of a method to a flat int-coded instruction
    stream: blocks flattened behind synthetic ENTER ops, branch targets
    resolved to flat pcs, per-instruction simulated cost and code-relative
    byte offset precomputed, static call sites interned to dense
    {!Profile} site ids, and call argument lists packed into an [extra]
    pool.  See the implementation header for the opcode encoding.

    Lowering is split in two: {!template} builds the position- and
    VM-independent stream once, and {!instantiate} binds it to one VM's
    code-space address and profile.  {!lower} is the two in sequence. *)

type code = {
  opc : int array;
      (** two words per instruction, this and [args]: the opcode in bits
          0–7, the precomputed quality × platform cost in bits 8–31, and
          the code-relative byte offset (instruction index × bytes per
          instruction) in bits 32–62 *)
  args : int array;
      (** operands packed x | y << 21 | z << 42 (21-bit fields; lowering
          rejects anything wider) *)
  extra : int array;
      (** call operand pool ([site id|recv; nargs; args...]) and constant
          pool (const's y field indexes its full-width value here) *)
  base : int;
      (** code-space address; an instruction's icache address is
          [base + (opc lsr 32)] *)
  nregs : int;
  spill : int;         (** per-executed-block spill cost *)
}

(** Placeholder for unused frame-pool slots; never executed. *)
val dummy : code

(** Width of one packed operand field in [args], and its mask. *)

val field_bits : int
val field_mask : int

(** Layout of the [opc] word past the opcode byte: the cost sits at
    [cost_shift] under [cost_mask] (24 bits), the byte offset at
    [offset_shift] (31 bits, below 2^31). *)

val cost_shift : int
val cost_mask : int
val offset_shift : int

(** Opcode values; {!Machine}'s dispatch matches on the literals and asserts
    they agree with these. *)

val op_const : int
val op_move : int
val op_binop_base : int
val op_cmp_base : int
val op_load : int
val op_store : int
val op_loadidx : int
val op_storeidx : int
val op_classof : int
val op_alloc : int
val op_print : int
val op_last_plain : int
val op_call : int
val op_callvirt : int
val op_enter : int
val op_jump : int
val op_branch : int
val op_ret : int

(** A lowered stream not yet bound to a VM: its [base] is 0 and its static
    call sites carry no site ids.  Immutable, so one template may be
    instantiated by any number of VMs, on any domain. *)
type template

(** [template ~plat ~quality ~bytes_per_instr ~spill m] does all of
    {!lower}'s work except the address and the site ids.  Re-validates
    registers, block targets, operand widths, costs (below 2^24) and byte
    offsets (below 2^31), which licenses the interpreter's unsafe array
    accesses; raises [Invalid_argument] on malformed code. *)
val template :
  plat:Platform.t -> quality:int -> bytes_per_instr:int -> spill:int -> Ir.methd -> template

(** [instantiate t ~profile ~owner ~addr] binds [t] to code-space address
    [addr] and interns its static call sites in [profile], attributed to
    method [owner], in stream order.  Shares [opc] and [args] with the
    template, and [extra] too when the method has no static call.  Raises
    [Invalid_argument] on a callee id out of the profile's range. *)
val instantiate : template -> profile:Profile.t -> owner:int -> addr:int -> code

(** [lower ~plat ~profile ~owner ~quality ~addr ~bytes_per_instr ~spill m]
    is [instantiate (template ...) ~profile ~owner ~addr]: it flattens [m]
    (the code a tier is about to install).  [owner] is the method id call
    sites are attributed to; [quality], [addr], [bytes_per_instr], and
    [spill] come from the tier's {!Compile.compiled} record. *)
val lower :
  plat:Platform.t ->
  profile:Profile.t ->
  owner:int ->
  quality:int ->
  addr:int ->
  bytes_per_instr:int ->
  spill:int ->
  Ir.methd ->
  code
