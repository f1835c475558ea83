(** Structural IR verifier, run after lowering and after every
    instrumentation pass (the analogue of LLVM's module verifier). A
    verification failure indicates a compiler bug, not a user error. *)

type error = { func : string; block : int; msg : string }

exception Invalid_ir of error

(** Verify a whole program. @raise Invalid_ir on the first violation. *)
val program : Prog.t -> unit

(** [program_result p] is [Ok ()] or [Error message]. *)
val program_result : Prog.t -> (unit, string) result

(** One elided dereference check: the access at [ce_block.ce_idx] of
    [ce_func] had its [checked] flag cleared by the redundant-check
    elision pass. *)
type elision_cert = { ce_func : string; ce_block : int; ce_idx : int }

(** Independently re-justify every elision: rebuild the symbolic address
    of each elided access and replay the must-availability argument — an
    equivalent, still-present check passes on every path into the elided
    position, with no intervening store, call, free or re-allocation that
    could change the checked value, metadata or temporal liveness. Errors
    indicate a bug in the elision pass. *)
val check_elision : Prog.t -> elision_cert list -> (unit, string) result

(** An allocation site a plain store's address may be rooted in:
    a global, an alloca (by destination register, scoped to the
    certificate's function) or a malloc site (by block/index position,
    same scoping). *)
type sep_root =
  | Sr_global of string
  | Sr_alloca of int
  | Sr_malloc of int * int

(** A safe-region separation certificate: the plain ([Regular]) store at
    [sc_block.sc_idx] of [sc_func] only ever writes memory rooted in
    [sc_roots], none of which backs safe-region storage. Emitted by the
    static soundness pass ({!Levee_analysis.Racecheck}). *)
type separation_cert = {
  sc_func : string;
  sc_block : int;
  sc_idx : int;
  sc_roots : sep_root list;
}

(** The emitting analysis's account of where safe-region storage lives:
    [sm_safe] lists every allocation site reached by a safe-routed
    access, qualified by function name ([""] for globals); [sm_opaque]
    lists safe accesses whose provenance the local walk cannot decide
    (the checker insists they are declared rather than forgotten). *)
type separation_model = {
  sm_safe : (string * sep_root) list;
  sm_opaque : (string * int * int) list;
}

val sep_root_to_string : sep_root -> string

(** Independently replay every separation certificate against the
    instrumented program: (1) audit the model — every safe-routed access
    must either walk to roots listed in [sm_safe] or be declared opaque;
    (2) for each certificate, re-derive the store's roots with a local
    single-def provenance walk and check they are claimed and disjoint
    from [sm_safe]. Errors indicate a bug in the static pass. *)
val check_separation :
  Prog.t ->
  model:separation_model ->
  separation_cert list ->
  (unit, string) result

(** [local_roots fn] is the separation replay's own provenance walker:
    roots of an address operand by a local single-def walk, [None] when
    provenance is opaque (loaded pointer, call result, multiply-defined
    register). Exposed so the emitting analysis speaks the same
    vocabulary; the replay never trusts the emitter's call. *)
val local_roots :
  Prog.func -> Instr.operand -> sep_root list option
