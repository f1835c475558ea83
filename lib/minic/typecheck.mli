(** MiniC type checker.

    Annotates every expression with its static type (filling
    [Ast.expr.ety]) and validates the program. The static types recorded
    here are exactly what the sensitivity analysis (paper Section 3.2.1)
    consumes: they distinguish function pointers, pointers to sensitive
    composites, and universal pointers. *)

module Ty = Levee_ir.Ty

exception Type_error of string * int
(** Message and line number. *)

(** Signatures of the built-in functions (modelled libc + harness):
    malloc, free, memcpy, memset, strcpy, strlen, strcmp, gets,
    read_input, read_int, print_int, print_str, checksum, setjmp,
    longjmp, system, exit, abort. *)
val intrinsic_sigs : (string * (Ty.t list * Ty.t)) list

type checked = {
  ast : Ast.program;
  tenv : Ty.env;
  global_tys : (string, Ty.t) Hashtbl.t;
  func_sigs : (string, Ty.t list * Ty.t) Hashtbl.t;
}

(** Check a parsed program. @raise Type_error on the first violation. *)
val check_program : Ast.program -> checked
