(** The safe stack instrumentation pass (Section 3.2.4).

    Runs the safety analysis over every function and partitions its stack
    objects: proven-safe objects are marked [SafeSlot] (placed on the safe
    stack by the loader when the configuration enables it), the rest are
    marked [UnsafeSlot] (a separate frame in the regular region). Return
    addresses are handled by the machine: with [Config.safe_stack] they
    live on the safe stack. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog

(** [usedef] hands out the build's use-def of each function. *)
let run ~usedef (prog : Prog.t) =
  Prog.iter_funcs prog (fun fn ->
      let verdicts, _needs =
        Levee_analysis.Stackanalysis.classify prog.Prog.tenv (usedef fn.Prog.fname)
      in
      Prog.iteri_instrs fn (fun bid idx i ->
          let slot k = Prog.decide fn bid idx (I.Slot k) in
          match i with
          | I.Alloca { dst; _ } ->
            (match Hashtbl.find_opt verdicts dst with
             | Some Levee_analysis.Stackanalysis.Safe -> slot I.SafeSlot
             | Some Levee_analysis.Stackanalysis.Unsafe -> slot I.UnsafeSlot
             | None -> ())
          | _ -> ()))
