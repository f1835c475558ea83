(** Safe stack analysis (Section 3.2.4).

    An alloca can live on the safe stack iff every access to it is
    statically provably safe: direct loads/stores of the slot, or accesses
    through constant, in-bounds offsets whose derived pointers never
    escape. Everything else — address passed to a callee or intrinsic,
    stored to memory, dynamic indexing, casts — forces the object onto the
    regular (unsafe) stack. Return addresses and spilled registers always
    satisfy the criterion (they are not allocas here; the machine keeps
    them on the safe stack when the configuration enables it). *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog

type verdict = Safe | Unsafe

(* [Ty.size_of], with struct and array sizes memoised for one
   classification. *)
let sizer tenv =
  let memo = Hashtbl.create 8 in
  fun (ty : Ty.t) ->
    match ty with
    | Ty.Void | Ty.Int | Ty.Char | Ty.Ptr _ | Ty.Fn _ -> Ty.size_of tenv ty
    | Ty.Struct _ | Ty.Arr _ ->
      (match Hashtbl.find_opt memo ty with
       | Some n -> n
       | None ->
         let n = Ty.size_of tenv ty in
         Hashtbl.replace memo ty n;
         n)

(* Constant total offset of the gep at [pos], if all steps are constant. *)
let gep_const_offset size (fn : Prog.func) (pos : Usedef.pos) =
  let b = fn.Prog.blocks.(pos.Usedef.block) in
  match b.Prog.instrs.(pos.Usedef.idx) with
  | I.Gep { path; _ } ->
    List.fold_left
      (fun acc step ->
        match acc, step with
        | None, _ -> None
        | Some n, I.Field (_, off, _) -> Some (n + off)
        | Some n, I.Index (ty, I.Imm k) -> Some (n + (k * size ty))
        | Some _, I.Index (_, (I.Reg _ | I.Glob _ | I.Fun _ | I.Nullp)) -> None)
      (Some 0) path
  | _ -> None

(* Does the register [r], known to point within [remaining] words of valid
   space, have only provably-safe uses? *)
let rec safe_uses ud size ~depth ~remaining r =
  depth > 0
  && List.for_all
       (fun (u : Usedef.use) ->
         match u with
         | Usedef.Load_addr (_, ty) | Usedef.Store_addr (_, ty) ->
           size ty <= remaining
         | Usedef.Gep_base (pos, dst) ->
           (match gep_const_offset size (Usedef.func ud) pos with
            | Some off when off >= 0 && off < remaining ->
              safe_uses ud size ~depth:(depth - 1) ~remaining:(remaining - off) dst
            | Some _ | None -> false)
         | Usedef.Cmp_op _ | Usedef.Branch_cond -> true
         | Usedef.Store_val _ | Usedef.Bin_op _ | Usedef.Cast_src _
         | Usedef.Call_arg _ | Usedef.Intrin_arg _ | Usedef.Callee _
         | Usedef.Ret_val | Usedef.Gep_index _ -> false)
       (Usedef.uses_of ud r)

(** Classify every alloca of the function [ud] describes. Returns the
    per-register verdict and whether the function needs an unsafe frame
    at all. *)
let classify tenv (ud : Usedef.t) : (int, verdict) Hashtbl.t * bool =
  let size = sizer tenv in
  let verdicts = Hashtbl.create 16 in
  let needs_unsafe = ref false in
  Prog.iter_instrs (Usedef.func ud) (fun (i : I.instr) ->
      match i with
      | I.Alloca { dst; ty; _ } ->
        let v =
          if safe_uses ud size ~depth:8 ~remaining:(size ty) dst then Safe
          else Unsafe
        in
        if v = Unsafe then needs_unsafe := true;
        Hashtbl.replace verdicts dst v
      | _ -> ());
  (verdicts, !needs_unsafe)
