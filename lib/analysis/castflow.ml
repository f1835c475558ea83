(** Data-flow augmentation for unsafe pointer casts (Section 3.2.1).

    If a value is cast to a sensitive pointer type, the value itself must be
    treated as sensitive so its based-on metadata survives the detour
    through the non-sensitive type: in particular, the load that produced
    it must be routed through the safe store. This is the paper's
    augmentation of the purely type-based analysis; like the paper's, it
    is local (intra-procedural) and may fail for flows it cannot recover,
    which can cause false violation reports but no loss of protection. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog

(** Positions of loads that must be force-instrumented because their result
    flows (locally) into a cast to a sensitive pointer type.

    The walk follows every value-propagating def — casts, gep base copies
    and *both* operands of pointer arithmetic — so a cast routed through an
    intermediate [Bin]/[Gep] copy (e.g. [w = 0 + v; (fnptr) w]) still forces
    the load that produced the value. Over-approximating here only adds
    instrumentation; it never loses protection. *)
let forced_load_positions sens_ctx (ud : Usedef.t) : Usedef.marks =
  let fn = Usedef.func ud in
  let forced = Usedef.marks fn in
  (* [seen.(r) = walk]: [r] was visited by the walk from cast [walk] *)
  let seen = Array.make fn.Prog.nregs (-1) in
  let rec mark walk ~depth (o : I.operand) =
    match o with
    | I.Reg r when depth > 0 && r >= 0 && r < Array.length seen && seen.(r) <> walk
      ->
      seen.(r) <- walk;
      (match Usedef.def ud r with
       | Some (pos, I.Load _) ->
         Usedef.mark forced (pos.Usedef.block, pos.Usedef.idx)
       | Some (_, I.Cast { v; _ }) -> mark walk ~depth:(depth - 1) v
       | Some (_, I.Gep { base; _ }) -> mark walk ~depth:(depth - 1) base
       | Some (_, I.Bin { l; r = rr; _ }) ->
         mark walk ~depth:(depth - 1) l;
         mark walk ~depth:(depth - 1) rr
       | Some (_, (I.Alloca _ | I.Cmp _ | I.Store _ | I.Call _ | I.Intrin _))
       | None -> ())
    | I.Reg _ | I.Imm _ | I.Glob _ | I.Fun _ | I.Nullp -> ()
  in
  let walks = ref 0 in
  Prog.iter_instrs fn (fun (i : I.instr) ->
      match i with
      | I.Cast { ty; v; _ } when Sensitivity.is_sensitive sens_ctx ty ->
        mark !walks ~depth:16 v;
        incr walks
      | I.Cast _ | I.Alloca _ | I.Bin _ | I.Cmp _ | I.Load _ | I.Store _
      | I.Gep _ | I.Call _ | I.Intrin _ -> ());
  forced

(** Positions of the casts themselves: every cast that *produces* a
    sensitive pointer type is an unsafe cast in the paper's sense — the
    source value's provenance must be recovered for the result to carry
    valid metadata. Reported by [levee analyze]. *)
let unsafe_cast_positions sens_ctx (fn : Prog.func) : Usedef.marks =
  let t = Usedef.marks fn in
  Array.iter
    (fun (b : Prog.block) ->
      Array.iteri
        (fun idx (i : I.instr) ->
          match i with
          | I.Cast { ty; _ } when Sensitivity.is_sensitive sens_ctx ty ->
            Usedef.mark t (b.Prog.bid, idx)
          | I.Cast _ | I.Alloca _ | I.Bin _ | I.Cmp _ | I.Load _ | I.Store _
          | I.Gep _ | I.Call _ | I.Intrin _ -> ())
        b.Prog.instrs)
    fn.Prog.blocks;
  t
