(** The sensitive-access plan: which loads and stores touch sensitive
    pointers (paper Section 3.2.1), decided once for the CPI, cpi-crypt
    and CPS passes and for [levee analyze].

    An access is sensitive when its type is under Fig. 7's rule and
    neither the char* heuristic ({!Strheur}) nor the points-to refinement
    ({!Pointsto.refine_cpi}) demotes it, or when it is a load the
    unsafe-cast data flow ({!Castflow}) forces. CPI enforces the answer
    with its safe region, cpi-crypt with an in-place cipher.

    The plan reads the build's use-defs (one per function, also read by
    the safe-stack analysis) for the char* heuristic, Castflow, the
    refinement and the passes. Position tables are dense per-function
    marks. The Castflow, annotation and refinement tables are built on
    first use and kept: CPS, which reads only the char* demotions, the
    safe-slot skip and the points-to result, never builds them. *)

type t

(** One function's slice of the plan. *)
type func

type access =
  | Plain      (** stays on the regular path *)
  | Sensitive  (** a sensitive pointer *)
  | Annotated  (** non-sensitive data inside an annotated struct *)

(** [create ~refine ~pinned ~points_to ~usedef prog]: with [refine], the
    points-to refinement runs; it never demotes an access that may reach
    a global named in [pinned]. [points_to] yields the solve for [prog]
    (or for the program [prog] was cloned from, before any pass rewrote
    it); it is called at most once, and only if a consumer reads the
    solve. [usedef] hands out the use-def of each function of [prog]; the
    plan keeps exactly those. A plan reads [Alloca.slot] from [prog], so
    it belongs to that one program and is never shared. *)
val create :
  refine:bool -> pinned:string list -> points_to:(unit -> Pointsto.t) ->
  usedef:(string -> Usedef.t) -> Levee_ir.Prog.t -> t

val ctx : t -> Sensitivity.ctx

(** The points-to solve, asked for at most once. *)
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
val forced : func -> Usedef.marks
val char_demoted : func -> Usedef.marks
val refined : func -> Usedef.marks
