(** Full spatial memory safety baseline in the style of SoftBound [34].

    Every pointer-typed load/store also moves bounds metadata through a
    disjoint metadata table keyed by the pointer's location
    ([RegularMeta]), and every memory access is bounds-checked against the
    based-on metadata of the pointer it dereferences. This is the paper's
    comparison point for Table 3: the instrumentation covers *all* memory
    operations, not just the 6.5% that CPI needs. *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog

let run (prog : Prog.t) =
  Prog.iter_funcs prog (fun fn ->
      Prog.iteri_instrs fn (fun bid idx i ->
          match i with
          | I.Load { ty; _ } | I.Store { ty; _ } ->
            let where = if Ty.is_pointer ty then I.RegularMeta else I.Regular in
            Prog.decide fn bid idx (I.Access (where, true))
          | _ -> ()))
