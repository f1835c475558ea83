(** The sensitive-access plan: which loads and stores touch sensitive
    pointers (paper Section 3.2.1), decided once for the CPI, cpi-crypt
    and CPS passes and for [levee analyze].

    An access is sensitive when its type is under Fig. 7's rule and
    neither the char* heuristic ({!Strheur}) nor the points-to refinement
    ({!Pointsto.refine_cpi}) demotes it, or when it is a load the
    unsafe-cast data flow ({!Castflow}) forces. CPI enforces the answer
    with its safe region, cpi-crypt with an in-place cipher.

    Tables are built on first use and shared: one set of use-def chains
    per function serves Castflow, the refinement and the CPI pass. CPS,
    which reads only the char* demotions, the safe-slot skip and the
    points-to result, never builds the rest. *)

type t

(** One function's slice of the plan. *)
type func

type access =
  | Plain      (** stays on the regular path *)
  | Sensitive  (** a sensitive pointer *)
  | Annotated  (** non-sensitive data inside an annotated struct *)

(** [create ~refine ~pinned prog]: with [refine], the points-to
    refinement runs; it never demotes an access that may reach a global
    named in [pinned]. *)
val create : refine:bool -> pinned:string list -> Levee_ir.Prog.t -> t

val ctx : t -> Sensitivity.ctx

(** The {!Pointsto.analyze} result, computed at most once. *)
val points_to : t -> Pointsto.t

(** Accesses the points-to refinement demoted (0 without [refine]). *)
val demoted_count : t -> int

(** Accesses outside the instrumented set to begin with: char*-heuristic
    demotions and direct accesses to proven-safe stack slots. *)
val skip : t -> string -> int * int -> bool

val func : t -> string -> func
val usedef : func -> Usedef.t
val on_safe_slot : func -> Levee_ir.Instr.operand -> bool

(** Does the operand address into a programmer-annotated struct? *)
val annotated : func -> Levee_ir.Instr.operand -> bool

(** Demoted by the char* heuristic or by the points-to refinement? *)
val demoted : func -> int * int -> bool

(** The answer for the load or store at a position. Safe-slot accesses
    are [Plain]; [Sensitive] wins over [Annotated]. *)
val access : func -> int * int -> access

(** Positions of Castflow-forced loads, char*-heuristic demotions and
    points-to demotions. *)
val forced : func -> (int * int, unit) Hashtbl.t
val char_demoted : func -> (int * int, unit) Hashtbl.t
val refined : func -> (int * int, unit) Hashtbl.t
