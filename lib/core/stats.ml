(** Static instrumentation statistics, reproducing the three columns of
    the paper's Table 2: FNUStack (fraction of functions that need an
    unsafe stack frame), and MO (fraction of memory operations
    instrumented) for the active pass. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog

type t = {
  funcs_total : int;
  funcs_unsafe_stack : int;
  mem_ops_total : int;
  mem_ops_instrumented : int;
  mem_ops_checked : int;
  indirect_calls : int;
  checks_elided : int;
  mem_ops_demoted : int;
}

let collect (prog : Prog.t) : t =
  let funcs_total = ref 0 and funcs_unsafe = ref 0 in
  let mem_total = ref 0 and mem_instr = ref 0 and mem_checked = ref 0 in
  let icalls = ref 0 in
  Prog.iter_funcs prog (fun fn ->
      incr funcs_total;
      let unsafe = ref false in
      Prog.iteri_instrs fn (fun bid idx i ->
          match i, Prog.knob fn bid idx with
          | I.Alloca _, I.Slot I.UnsafeSlot -> unsafe := true
          | (I.Load _ | I.Store _), _ ->
            let where, checked = Prog.access fn bid idx in
            incr mem_total;
            if where <> I.Regular then incr mem_instr;
            if checked then incr mem_checked
          | I.Call { callee = I.Indirect _; _ }, _ -> incr icalls
          | _ -> ());
      if !unsafe then incr funcs_unsafe);
  { funcs_total = !funcs_total;
    funcs_unsafe_stack = !funcs_unsafe;
    mem_ops_total = !mem_total;
    mem_ops_instrumented = !mem_instr;
    mem_ops_checked = !mem_checked;
    indirect_calls = !icalls;
    (* filled in by the pipeline, which knows what the passes did *)
    checks_elided = 0;
    mem_ops_demoted = 0 }

let fraction num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(** FNUStack column of Table 2. *)
let fnustack t = fraction t.funcs_unsafe_stack t.funcs_total

(** MO column of Table 2 (for whichever pass produced the program). *)
let mo_instrumented t = fraction t.mem_ops_instrumented t.mem_ops_total
