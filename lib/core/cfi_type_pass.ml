(** Per-signature ("type") CFI — the middle point of Burow et al.'s
    precision spectrum.

    Coarse CFI ([Cfi_pass]) admits any function entry as an indirect-call
    target; the precise end (CPI) admits only pointers with genuine
    provenance. This pass computes, for each indirect call site, a static
    set of *allowed named functions*: the signature class the points-to
    solve links the call through ([Pointsto.signature_class]:
    address-taken functions of exactly the call's type or, when there are
    none, of its arity), widened by the Andersen callee set when the
    analysis can name the operand's code sources. The union keeps the
    check transparent for well-typed programs — a legitimate target is
    either signature-compatible or visible to the points-to analysis —
    while still refusing any function outside both, which is how cfi-type
    blocks the cross-signature hijacks coarse CFI admits.

    The machine enforces membership on top of the coarse entry check when
    a call site carries a set; sites with no usable information keep
    the coarse [Cfi None] knob. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog
module An = Levee_analysis

(** Mark indirect calls as CFI-checked and attach per-signature target
    sets read from [pt], the points-to solve of [prog] or of its source.
    Returns the number of call sites that received a set. *)
let run pt (prog : Prog.t) : int =
  Cfi_pass.run prog;
  let count = ref 0 in
  Prog.iter_funcs prog (fun fn ->
      Prog.iteri_instrs fn (fun bid idx i ->
          match i with
          | I.Call { callee = I.Indirect o; fty; args; _ } ->
            let sig_class =
              An.Pointsto.signature_class pt ~fty ~arity:(List.length args)
            in
            let names =
              match An.Pointsto.callee_targets pt ~fname:fn.Prog.fname o with
              | None -> sig_class
              | Some andersen -> sig_class @ andersen
            in
            (match List.sort_uniq compare names with
             | [] -> () (* no information: coarse check only *)
             | names ->
               Prog.decide fn bid idx (I.Cfi (Some names));
               incr count)
          | _ -> ()));
  !count
