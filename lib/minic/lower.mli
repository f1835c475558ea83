(** Lowering of type-checked MiniC to the IR, plus front-end drivers.

    The translation is clang-like: every local lives in an alloca (hoisted
    to the entry block), lvalues evaluate to addresses, rvalues to loaded
    values with array-to-pointer decay, and every memory operation records
    the static type it accesses — the information the paper's type-based
    analysis runs on. All memory operations are emitted as plain accesses;
    the protection passes rewrite them. *)

exception Lower_error of string * int

(** Lower a checked program. The result passes [Levee_ir.Verify]. *)
val lower : Typecheck.checked -> Levee_ir.Prog.t

(** [compile src] parses, type-checks, lowers and verifies MiniC source.
    Programmer [sensitive] struct annotations are recorded in the
    program's type environment ({!Levee_ir.Ty.marked_sensitive}).
    @raise Failure with a located message on any front-end error. *)
val compile : ?name:string -> string -> Levee_ir.Prog.t
