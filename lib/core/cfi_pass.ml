(** Coarse-grained control-flow integrity baseline [1, 53, 54].

    Marks every indirect call for a runtime valid-target check. Like the
    deployed CFI systems the paper compares against, the valid set is the
    coarse "any function entry" approximation, and returns are checked
    against "any call-preceded address" ([Config.cfi_checks]); the recent
    attacks the paper cites ([19, 15, 9]) exploit exactly that coarseness,
    and the RIPE-style suite reproduces them. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog

let run (prog : Prog.t) =
  Prog.iter_funcs prog (fun fn ->
      Prog.iter_instrs fn (fun i ->
          match i with
          | I.Call ({ callee = I.Indirect _; _ } as c) -> c.cfi_checked <- true
          | _ -> ()))
