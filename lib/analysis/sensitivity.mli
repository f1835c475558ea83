(** Type-based sensitivity classification (paper Section 3.2.1, Fig. 7). *)

module Ty = Levee_ir.Ty

type ctx

(** [create tenv] builds a classification context; structs marked
    [sensitive] in [tenv] ({!Ty.marked_sensitive}) are sensitive too. *)
val create : Ty.env -> ctx

(** The [sensitive] criterion of Fig. 7: function pointers, pointers to
    sensitive types, pointers to composites with a sensitive member, and
    universal pointers. *)
val is_sensitive : ctx -> Ty.t -> bool

(** CPS's restricted criterion: code pointers (and universal pointers,
    which may hold code pointers at runtime) only. *)
val is_cps_sensitive : ctx -> Ty.t -> bool

(** Must a dereference *through* a pointer to [ty] be safety-checked?
    True when [Ptr ty] is itself sensitive. *)
val deref_needs_check : ctx -> Ty.t -> bool

(** Registers that (locally) address into a programmer-annotated struct,
    through an alloca or gep of the struct and the geps/casts derived
    from them. Accesses through them stay instrumented. *)
val annotated_addr_regs :
  ctx -> Levee_ir.Prog.func -> (int, unit) Hashtbl.t
