(** Human-readable IR printing, used by the CLI driver's [-emit-ir] mode and
    by tests that assert on instrumentation results. *)

open Instr

let operand = function
  | Reg r -> Printf.sprintf "%%r%d" r
  | Imm i -> string_of_int i
  | Glob g -> "@" ^ g
  | Fun f -> "&" ^ f
  | Nullp -> "null"

let gep_step = function
  | Field (name, off, _) -> Printf.sprintf ".%s(+%d)" name off
  | Index (ty, o) -> Printf.sprintf "[%s x %s]" (operand o) (Ty.to_string ty)

let attrs (k : knob) =
  match k with
  | Access (w, c) ->
    (if w = Regular then "" else " !" ^ where_name w) ^ if c then " !chk" else ""
  | Slot SafeSlot -> " !safe"
  | Slot UnsafeSlot -> " !unsafe"
  | Cfi _ -> " !cfi"
  | Plain | Slot Auto | Safe_memop -> ""

(* [k] picks the safe-store variant of a memcpy/memset; the rest of a
   knob prints after the instruction ([attrs]). *)
let instr (k : knob) (i : instr) =
  match i with
  | Alloca { dst; ty } -> Printf.sprintf "%%r%d = alloca %s" dst (Ty.to_string ty)
  | Bin { dst; op; l; r } ->
    Printf.sprintf "%%r%d = %s %s, %s" dst (binop_name op) (operand l) (operand r)
  | Cmp { dst; op; l; r } ->
    Printf.sprintf "%%r%d = cmp.%s %s, %s" dst (cmpop_name op) (operand l) (operand r)
  | Load { dst; ty; addr } ->
    Printf.sprintf "%%r%d = load %s, %s" dst (Ty.to_string ty) (operand addr)
  | Store { ty; v; addr } ->
    Printf.sprintf "store %s %s, %s" (Ty.to_string ty) (operand v) (operand addr)
  | Gep { dst; base_ty; base; path } ->
    Printf.sprintf "%%r%d = gep %s %s %s" dst (Ty.to_string base_ty) (operand base)
      (String.concat " " (List.map gep_step path))
  | Cast { dst; kind; ty; v } ->
    let k = match kind with
      | Bitcast -> "bitcast" | PtrToInt -> "ptrtoint" | IntToPtr -> "inttoptr"
    in
    Printf.sprintf "%%r%d = %s %s to %s" dst k (operand v) (Ty.to_string ty)
  | Call { dst; callee; args; _ } ->
    let d = match dst with Some r -> Printf.sprintf "%%r%d = " r | None -> "" in
    let c = match callee with
      | Direct f -> f
      | Indirect o -> "*" ^ operand o
    in
    Printf.sprintf "%scall %s(%s)" d c (String.concat ", " (List.map operand args))
  | Intrin { dst; op; args } ->
    let d = match dst with Some r -> Printf.sprintf "%%r%d = " r | None -> "" in
    Printf.sprintf "%s%s%s(%s)" d (if k = Safe_memop then "cpi_" else "")
      (intrin_name op) (String.concat ", " (List.map operand args))

let term = function
  | Ret None -> "ret"
  | Ret (Some o) -> "ret " ^ operand o
  | Br (c, a, b) -> Printf.sprintf "br %s, b%d, b%d" (operand c) a b
  | Jmp b -> Printf.sprintf "jmp b%d" b
  | Switch (o, cases, dflt) ->
    Printf.sprintf "switch %s [%s] default b%d" (operand o)
      (String.concat "; " (List.map (fun (v, b) -> Printf.sprintf "%d->b%d" v b) cases))
      dflt
  | Unreachable -> "unreachable"

let func (fn : Prog.func) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "func %s(%s) : %s%s {\n" fn.fname
       (String.concat ", "
          (List.map (fun (n, ty) -> n ^ " : " ^ Ty.to_string ty) fn.params))
       (Ty.to_string fn.ret_ty)
       (if fn.cookie then " !cookie" else ""));
  Array.iter
    (fun (b : Prog.block) ->
      Buffer.add_string buf (Printf.sprintf "b%d:\n" b.bid);
      Array.iteri
        (fun idx i ->
          let k = Prog.knob fn b.bid idx in
          Buffer.add_string buf ("  " ^ instr k i ^ attrs k ^ "\n"))
        b.instrs;
      Buffer.add_string buf ("  " ^ term b.term ^ "\n"))
    fn.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let program (p : Prog.t) =
  let buf = Buffer.create 1024 in
  Hashtbl.iter
    (fun name fields ->
      Buffer.add_string buf
        (Printf.sprintf "struct %s { %s }\n" name
           (String.concat "; "
              (List.map (fun (n, ty) -> n ^ " : " ^ Ty.to_string ty) fields))))
    p.Prog.tenv.Ty.structs;
  List.iter
    (fun (g : Prog.global) ->
      Buffer.add_string buf
        (Printf.sprintf "global @%s : %s\n" g.gname (Ty.to_string g.gty)))
    p.Prog.globals;
  Prog.iter_funcs p (fun fn -> Buffer.add_string buf (func fn));
  Buffer.contents buf
