(** Type-based sensitivity classification (Section 3.2.1, Fig. 7).

    Sensitive types are: pointers to functions, pointers to sensitive
    types, pointers to composite types with at least one sensitive member,
    and universal pointers (void*/char pointers and, in full C, opaque
    forward-declared structs). Programmer-annotated structs (the paper's
    struct-ucred example, marked in the type environment by the front
    end) are additionally sensitive. *)

module Ty = Levee_ir.Ty
module I = Levee_ir.Instr
module Prog = Levee_ir.Prog

type ctx = {
  tenv : Ty.env;
  memo : (Ty.t, bool) Hashtbl.t;
}

let create tenv = { tenv; memo = Hashtbl.create 64 }

(** [is_sensitive ctx ty] implements the [sensitive] criterion of Fig. 7.
    Recursion through struct pointers is cut with a visited set (a pointer
    cycle that reaches no function pointer is not sensitive). *)
let is_sensitive ctx ty =
  let rec go visited ty =
    match Hashtbl.find_opt ctx.memo ty with
    | Some r -> r
    | None ->
      let r =
        match ty with
        | Ty.Void | Ty.Int | Ty.Char -> false
        | Ty.Fn _ -> true
        | Ty.Ptr Ty.Void | Ty.Ptr Ty.Char -> true      (* universal *)
        | Ty.Ptr t -> go visited t
        | Ty.Arr (t, _) -> go visited t
        | Ty.Struct s ->
          Ty.marked_sensitive ctx.tenv s
          || (if List.mem s visited then false
              else
                List.exists
                  (fun (_, ft) -> go (s :: visited) ft)
                  (Ty.struct_fields ctx.tenv s))
      in
      (* Only memoize cycle-free answers. *)
      if visited = [] then Hashtbl.replace ctx.memo ty r;
      r
  in
  go [] ty

(** CPS's restricted criterion: code pointers only (plus universal
    pointers, which may hold code pointers at runtime). *)
let is_cps_sensitive _ctx ty =
  match ty with
  | Ty.Ptr (Ty.Fn _) -> true
  | Ty.Ptr Ty.Void | Ty.Ptr Ty.Char -> true
  | Ty.Void | Ty.Int | Ty.Char | Ty.Ptr _ | Ty.Fn _ | Ty.Struct _ | Ty.Arr _ -> false

(** Is [ty] dereferenceable-sensitive, i.e. must a dereference *through* a
    pointer to [ty] be safety-checked? True when the pointer type [Ptr ty]
    is itself sensitive. *)
let deref_needs_check ctx ty = is_sensitive ctx (Ty.Ptr ty)

(** Registers that (locally) address into a programmer-annotated struct:
    accesses through them stay instrumented whatever their type. *)
let annotated_addr_regs ctx (fn : Prog.func) =
  let marked = Hashtbl.create 8 in
  let is_annot s = Ty.marked_sensitive ctx.tenv s in
  Prog.iter_instrs fn (fun i ->
      match i with
      | I.Alloca { dst; ty = Ty.Struct s; _ } when is_annot s ->
        Hashtbl.replace marked dst ()
      | I.Gep { dst; base_ty = Ty.Struct s; _ } when is_annot s ->
        Hashtbl.replace marked dst ()
      | I.Gep { dst; base = I.Reg r; _ } | I.Cast { dst; v = I.Reg r; _ }
        when Hashtbl.mem marked r ->
        Hashtbl.replace marked dst ()
      | _ -> ());
  marked
