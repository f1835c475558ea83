(** Flow-insensitive Andersen-style points-to analysis over Levee IR,
    interprocedural via direct calls and type-compatible indirect-call
    targets. Feeds the sensitivity refinement (demoting accesses whose
    points-to sets provably never reach a code pointer), the cfi-type
    target sets and the [levee analyze] diagnostics. Conservative by
    construction: imprecision only leaves extra instrumentation in place.

    The solver numbers each function's registers densely, links the
    indirect calls of one type and arity to their signature class through
    one hub, and re-applies its constraints round-robin until nothing
    changes (no iteration cap).
    [analyze] never writes its input, and a solution is immutable with no
    lazy parts, so one solve may be read from several domains at once and
    shared by every build of the same program. *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog

(** Abstract memory objects: allocation sites plus the [O_code] /
    [O_unknown] pseudo-objects (any code address / unmodelled memory). *)
type obj =
  | O_global of string
  | O_alloca of string * int (* function, alloca dst register *)
  | O_malloc of string * int * int (* function, block, instr index *)
  | O_fun of string (* the code address of one named function *)
  | O_code
  | O_unknown

type t

(** Solve the inclusion constraints for a whole program. Also computes
    per-object [reaches_code] (contents may transitively yield a code
    pointer) and hazard flags (objects moved wholesale by memcpy-style
    intrinsics or aliased by jmp_bufs). Reads the functions'
    [address_taken] flags as they stand ([Lower.compile] sets them;
    [Prog.compute_address_taken] recomputes them) and writes nothing. *)
val analyze : Prog.t -> t

(** The program the solution was computed for (physically). *)
val source : t -> Prog.t

(** Objects an operand may point to, in the order the objects were first
    discovered: the first two are [O_code] and [O_unknown], then globals
    in declaration order, then the objects the functions mention, in
    program order. *)
val points_to : t -> fname:string -> I.operand -> obj list

(** May the contents of [obj] transitively hold a code pointer? Unknown
    objects answer [true]. *)
val reaches_code : t -> obj -> bool

(** May the memory addressed by the operand transitively hold a code
    pointer? An empty points-to set is unmodelled: answers [true]. *)
val addr_may_reach_code : t -> fname:string -> I.operand -> bool

(** May the operand's own value be a code pointer? *)
val value_may_be_code : t -> fname:string -> I.operand -> bool

val obj_to_string : obj -> string

(** Possible named-function targets of an indirect-call operand:
    [Some names] (sorted) when the operand's code sources are all named
    functions, [None] when the set is unmodelled or carries unnamed code
    provenance. Feeds the cfi-type per-call-site target sets. *)
val callee_targets : t -> fname:string -> I.operand -> string list option

(** The signature class of an indirect call of type [fty] with [arity]
    arguments, as the solver links it: the address-taken functions of
    exactly that type or, when there are none, those with [arity]
    parameters, in program order. The cfi-type per-signature sets. *)
val signature_class : t -> fty:Ty.t -> arity:int -> string list

(** Per function (by name, every function of the program), the positions
    of type-rule-sensitive accesses that are provably data-only and safe
    to demote to plain accesses. [keep fname] marks positions that must
    stay instrumented (Castflow-forced, annotated-struct paths), as does
    any access that may reach a global named in [pinned]; [skip fname]
    marks positions that are not instrumented in the first place
    (safe-slot accesses, accesses already demoted by the char*
    heuristic). Demotion is consistent per object: either every access
    that may touch an object is demoted, or none is, and loads are
    demoted only when every transitive use of the loaded value is
    metadata-blind, judged on [usedef fname]'s use-def chains. The
    accesses are read from the program given, the one being instrumented:
    a build of the solved program, sharing its instructions. The fixpoint
    has no round cap: it only ever removes objects from the demotable
    set. *)
val refine_cpi :
  t ->
  Prog.t ->
  ctx:Sensitivity.ctx ->
  usedef:(string -> Usedef.t) ->
  pinned:string list ->
  keep:(string -> int * int -> bool) ->
  skip:(string -> int * int -> bool) ->
  (string, Usedef.marks) Hashtbl.t

(** CPS variant: demote accesses of [instrumented] types whose points-to
    sets never reach code. No use audit is needed — [SafeValue] routing
    of never-code values is observationally identical to plain access.
    Accesses are read from the program given, as for [refine_cpi]. *)
val refine_cps :
  t ->
  Prog.t ->
  instrumented:(Ty.t -> bool) ->
  skip:(string -> int * int -> bool) ->
  (string, Usedef.marks) Hashtbl.t
