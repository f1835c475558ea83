(** The CPS instrumentation pass (Section 3.3).

    Code-pointer separation protects only code pointers: their loads and
    stores go through the safe pointer store with no bounds or temporal
    metadata ([SafeValue]). Pointers used to access code pointers
    indirectly remain uninstrumented, and no dereference checks are added —
    this is the entire difference from CPI, and the source of its lower
    overhead. Universal pointers may carry code pointers at runtime, so
    their memory operations are routed through the store as well (the
    runtime falls back to the regular region when no protected value is
    present); the char* heuristic prunes string pointers. The criterion
    and [Pointsto.refine_cps] are CPS's own; the skip set and the
    points-to result come from the plan ([Levee_analysis.Plan]).

    A code pointer lives only in the safe store, so a [memcpy]/[memset]
    whose memory may hold one is rewritten to the safe-store-aware
    variant: a plain copy would drop it, a plain clear leave it behind.
    The rule reads the points-to result whether or not [refine] is set. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog
module An = Levee_analysis

(** Returns the number of accesses demoted by the points-to refinement
    ([Pointsto.refine_cps]): instrumented-type accesses whose values
    provably never hold a code pointer stay on the regular path.
    [points_to] yields the solve of [prog] or of its source; [usedef]
    hands out the build's use-def of each function. *)
let run ?(refine = true) ~points_to ~usedef (prog : Prog.t) : int =
  let plan = An.Plan.create ~refine ~pinned:[] ~points_to ~usedef prog in
  let instrumented = An.Sensitivity.is_cps_sensitive (An.Plan.ctx plan) in
  let skip = An.Plan.skip plan in
  let pt = An.Plan.points_to plan in
  let refined =
    if refine then An.Pointsto.refine_cps pt prog ~instrumented ~skip
    else Hashtbl.create 1
  in
  Prog.iter_funcs prog (fun fn ->
      let fname = fn.Prog.fname in
      let may_hold_code = An.Pointsto.addr_may_reach_code pt ~fname in
      let skip = skip fname in
      let refined = Option.value ~default:[||] (Hashtbl.find_opt refined fname) in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              let routed ty =
                instrumented ty
                && (not (skip (b.Prog.bid, idx)))
                && not (An.Usedef.marked refined (b.Prog.bid, idx))
              in
              match i with
              | I.Load ({ ty; _ } as l) when routed ty ->
                l.where <- I.SafeValue
              | I.Store ({ ty; _ } as s) when routed ty ->
                s.where <- I.SafeValue
              | I.Intrin { dst; op = I.I_memcpy; args = [ d; s; _ ] as args }
                when may_hold_code d || may_hold_code s ->
                b.Prog.instrs.(idx) <-
                  I.Intrin { dst; op = I.I_cpi_memcpy; args }
              | I.Intrin { dst; op = I.I_memset; args = [ d; _; _ ] as args }
                when may_hold_code d ->
                b.Prog.instrs.(idx) <-
                  I.Intrin { dst; op = I.I_cpi_memset; args }
              | _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks);
  Hashtbl.fold (fun _ m n -> n + List.length (An.Usedef.positions m)) refined 0
