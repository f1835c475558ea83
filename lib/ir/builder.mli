(** Imperative IR construction, in the style of LLVM's IRBuilder: a builder
    owns one function under construction and an insertion point. *)

type t

(** Create a function and a builder positioned at its empty entry block.
    Parameters are bound to registers [0..n-1]. *)
val create : name:string -> params:(string * Ty.t) list -> ret_ty:Ty.t -> t

val func : t -> Prog.func

(** Allocate a fresh virtual register. *)
val fresh_reg : t -> int

(** Register holding the [i]-th parameter. *)
val param_reg : t -> int -> int

(** Append a new block (not yet the insertion point); returns its id. *)
val new_block : t -> int

(** Move the insertion point to block [bid], flushing pending instructions. *)
val position_at : t -> int -> unit

(** Append a raw instruction at the insertion point. *)
val emit : t -> Instr.instr -> unit

(** Seal the current block with a terminator. *)
val set_term : t -> Instr.term -> unit

(** Typed emission helpers; each returns the destination register. *)

val alloca : t -> Ty.t -> int
val bin : t -> Instr.binop -> Instr.operand -> Instr.operand -> int
val cmp : t -> Instr.cmpop -> Instr.operand -> Instr.operand -> int
val load : t -> Ty.t -> Instr.operand -> int
val store : t -> Ty.t -> Instr.operand -> Instr.operand -> unit

val gep :
  t -> base_ty:Ty.t -> base:Instr.operand -> Instr.gep_step list -> int

val cast : t -> Instr.castkind -> Ty.t -> Instr.operand -> int

(** [call t ~fty ~ret_ty callee args] returns the destination register,
    or [None] for void calls. *)
val call :
  t -> ?fty:Ty.t -> ret_ty:Ty.t -> Instr.callee -> Instr.operand list ->
  int option

val intrin :
  t -> ?dst_ty:Ty.t -> Instr.intrin -> Instr.operand list -> int option

(** Finish construction; the function must not be modified through this
    builder afterwards. *)
val finish : t -> Prog.func
