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
let forced_load_positions sens_ctx (ud : Usedef.t) :
    (int * int, unit) Hashtbl.t =
  let forced = Hashtbl.create 8 in
  let rec mark ~depth visited (o : I.operand) =
    match o with
    | I.Reg r when depth > 0 && not (Hashtbl.mem visited r) ->
      Hashtbl.add visited r ();
      (match Usedef.def ud r with
       | Some (pos, I.Load _) ->
         Hashtbl.replace forced (pos.Usedef.block, pos.Usedef.idx) ()
       | Some (_, I.Cast { v; _ }) -> mark ~depth:(depth - 1) visited v
       | Some (_, I.Gep { base; _ }) -> mark ~depth:(depth - 1) visited base
       | Some (_, I.Bin { l; r = rr; _ }) ->
         mark ~depth:(depth - 1) visited l;
         mark ~depth:(depth - 1) visited rr
       | Some (_, (I.Alloca _ | I.Cmp _ | I.Store _ | I.Call _ | I.Intrin _))
       | None -> ())
    | I.Reg _ | I.Imm _ | I.Glob _ | I.Fun _ | I.Nullp -> ()
  in
  Prog.iter_instrs ud.Usedef.fn (fun (i : I.instr) ->
      match i with
      | I.Cast { ty; v; _ } when Sensitivity.is_sensitive sens_ctx ty ->
        mark ~depth:16 (Hashtbl.create 8) v
      | I.Cast _ | I.Alloca _ | I.Bin _ | I.Cmp _ | I.Load _ | I.Store _
      | I.Gep _ | I.Call _ | I.Intrin _ -> ());
  forced

(** Positions of the casts themselves: every cast that *produces* a
    sensitive pointer type is an unsafe cast in the paper's sense — the
    source value's provenance must be recovered for the result to carry
    valid metadata. Reported by [levee analyze]. *)
let unsafe_cast_positions sens_ctx (fn : Prog.func) : (int * int, unit) Hashtbl.t
    =
  let t = Hashtbl.create 8 in
  Array.iter
    (fun (b : Prog.block) ->
      Array.iteri
        (fun idx (i : I.instr) ->
          match i with
          | I.Cast { ty; _ } when Sensitivity.is_sensitive sens_ctx ty ->
            Hashtbl.replace t (b.Prog.bid, idx) ()
          | I.Cast _ | I.Alloca _ | I.Bin _ | I.Cmp _ | I.Load _ | I.Store _
          | I.Gep _ | I.Call _ | I.Intrin _ -> ())
        b.Prog.instrs)
    fn.Prog.blocks;
  t
