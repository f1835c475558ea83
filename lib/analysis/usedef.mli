(** Per-function use-def maps over the IR, read by the char* heuristic,
    the unsafe-cast data-flow augmentation, the points-to refinement and
    the safe stack analysis. A build makes one per function ({!of_prog})
    and hands that one to every reader. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog

(** Position of an instruction within its function. *)
type pos = { block : int; idx : int }

type use =
  | Load_addr of pos * Levee_ir.Ty.t (* reg used as load address *)
  | Store_addr of pos * Levee_ir.Ty.t
  | Store_val of pos * Levee_ir.Ty.t (* reg stored as a value *)
  | Gep_base of pos * int (* dst register of the gep *)
  | Gep_index of pos
  | Bin_op of pos * int (* dst register *)
  | Cmp_op of pos
  | Cast_src of pos * int * Levee_ir.Ty.t (* dst register, target type *)
  | Call_arg of pos
  | Intrin_arg of pos * I.intrin * int (* which argument position *)
  | Callee of pos
  | Ret_val
  | Branch_cond

(** Arrays indexed by register: where each register is last defined and
    where it is used. Instructions are read from the function when asked
    for. *)
type t

val build : Prog.func -> t
val func : t -> Prog.func

(** [of_prog prog] builds every function's use-def now, looked up by name. *)
val of_prog : Prog.t -> string -> t

(** The defining instruction of a virtual register, if any. Parameters
    have none; registers outside the function have neither defs nor uses. *)
val def : t -> int -> (pos * I.instr) option

(** Every use of a register, in reverse program order (a block's
    terminator counts as after its instructions). *)
val uses_of : t -> int -> use list

(** A dense set of one function's positions, [m.(block).(idx)]; [marks fn]
    is the empty one, and [marked] answers [false] outside it. *)
type marks = bool array array

val marks : Prog.func -> marks
val marked : marks -> int * int -> bool
val mark : marks -> int * int -> unit

(** The members, in program order. *)
val positions : marks -> (int * int) list

(** Local origin of an operand, traced through copies, casts, geps and
    the left operand of pointer arithmetic. *)
type origin =
  | From_alloca of Levee_ir.Ty.t
  | From_global of string
  | From_malloc
  | From_load of pos
  | From_call
  | From_fun of string
  | From_const
  | From_param of int (* the i-th parameter of the enclosing function *)
  | Unknown

(** The storage site an address operand roots at, if locally traceable. *)
type site = Site_alloca of int | Site_global of string | Site_unknown

val root_site : ?depth:int -> t -> I.operand -> site
val origin : ?depth:int -> t -> I.operand -> origin
