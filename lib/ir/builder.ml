(** Imperative IR construction helper, in the style of LLVM's IRBuilder.

    A builder owns one function under construction and an insertion point;
    the MiniC lowering and the unit tests both use it. *)

open Instr

type t = {
  fn : Prog.func;
  mutable cur : Prog.block;                 (* current insertion block *)
  mutable pending : Instr.instr list;       (* reversed *)
}

let func t = t.fn

(** Create a function and a builder positioned at its (empty) entry block. *)
let create ~name ~params ~ret_ty =
  let entry = { Prog.bid = 0; instrs = [||]; term = Unreachable } in
  let fn =
    { Prog.fname = name; params; ret_ty; blocks = [| entry |];
      nregs = List.length params; cookie = false; address_taken = false }
  in
  { fn; cur = entry; pending = [] }

let fresh_reg t =
  let r = t.fn.nregs in
  t.fn.nregs <- r + 1;
  r

(** Parameter register for the [i]-th parameter. *)
let param_reg _t i = i

let flush t =
  t.cur.instrs <- Array.append t.cur.instrs (Array.of_list (List.rev t.pending));
  t.pending <- []

(** Append a new block (not yet the insertion point); returns its id. *)
let new_block t =
  flush t;
  let bid = Array.length t.fn.blocks in
  let b = { Prog.bid; instrs = [||]; term = Unreachable } in
  t.fn.blocks <- Array.append t.fn.blocks [| b |];
  bid

let position_at t bid =
  flush t;
  t.cur <- t.fn.blocks.(bid)

let emit t i = t.pending <- i :: t.pending

let set_term t term =
  flush t;
  t.cur.term <- term

(* -- Typed emission helpers; each returns the destination register -- *)

let alloca t ty =
  let dst = fresh_reg t in
  emit t (Alloca { dst; ty; slot = Auto });
  dst

let bin t op l r =
  let dst = fresh_reg t in
  emit t (Bin { dst; op; l; r });
  dst

let cmp t op l r =
  let dst = fresh_reg t in
  emit t (Cmp { dst; op; l; r });
  dst

let load t ty addr =
  let dst = fresh_reg t in
  emit t (Load { dst; ty; addr; where = Regular; checked = false });
  dst

let store t ty v addr = emit t (Store { ty; v; addr; where = Regular; checked = false })

let gep t ~base_ty ~base path =
  let dst = fresh_reg t in
  emit t (Gep { dst; base_ty; base; path });
  dst

let cast t kind ty v =
  let dst = fresh_reg t in
  emit t (Cast { dst; kind; ty; v });
  dst

let call t ?(fty = Ty.Fn ([], Ty.Void)) ~ret_ty callee args =
  let dst = if Ty.equal ret_ty Ty.Void then None else Some (fresh_reg t) in
  emit t (Call { dst; callee; args; fty; cfi_checked = false; cfi_set = None });
  dst

let intrin t ?dst_ty op args =
  let dst = match dst_ty with None -> None | Some _ -> Some (fresh_reg t) in
  emit t (Intrin { dst; op; args });
  dst

(** Finish construction; the function must not be modified afterwards
    through this builder. *)
let finish t =
  flush t;
  t.fn
