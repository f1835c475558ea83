(** Flow-insensitive Andersen-style points-to analysis over Levee IR,
    interprocedural via direct calls and type-compatible indirect-call
    targets. Feeds the sensitivity refinement (demoting accesses whose
    points-to sets provably never reach a code pointer) and the
    [levee analyze] diagnostics. Conservative by construction:
    imprecision only leaves extra instrumentation in place. *)

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
    intrinsics or aliased by jmp_bufs). *)
val analyze : Prog.t -> t

(** Objects an operand may point to, in a deterministic order. *)
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

(** Positions (function, block, index) of type-rule-sensitive accesses
    that are provably data-only and safe to demote to plain accesses.
    [keep] marks positions that must stay instrumented (Castflow-forced,
    annotated-struct paths); [skip] marks positions that are not
    instrumented in the first place (safe-slot accesses, accesses already
    demoted by the char* heuristic). Demotion is consistent per object:
    either every access that may touch an object is demoted, or none is,
    and loads are demoted only when every transitive use of the loaded
    value is metadata-blind, judged on [usedef fname]'s use-def chains. *)
val refine_cpi :
  t ->
  ctx:Sensitivity.ctx ->
  usedef:(string -> Usedef.t) ->
  keep:(string -> int * int -> bool) ->
  skip:(string -> int * int -> bool) ->
  (string * int * int, unit) Hashtbl.t

(** CPS variant: demote accesses of [instrumented] types whose points-to
    sets never reach code. No use audit is needed — [SafeValue] routing
    of never-code values is observationally identical to plain access. *)
val refine_cps :
  t ->
  instrumented:(Ty.t -> bool) ->
  skip:(string -> int * int -> bool) ->
  (string * int * int, unit) Hashtbl.t
