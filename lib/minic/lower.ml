(** Lowering of type-checked MiniC to the IR.

    The translation is deliberately clang-like: every local lives in an
    alloca (hoisted to the entry block), lvalues evaluate to addresses,
    rvalues to loaded values with array-to-pointer decay, and every memory
    operation records the static type it accesses — the information the
    paper's type-based static analysis runs on. All memory operations are
    emitted as plain [Regular] accesses; the protection passes rewrite
    them. *)

module Ty = Levee_ir.Ty
module Ir = Levee_ir.Instr
module Prog = Levee_ir.Prog
module B = Levee_ir.Builder
open Ast

exception Lower_error of string * int

let error pos fmt = Printf.ksprintf (fun msg -> raise (Lower_error (msg, pos))) fmt

type var = Local of int * Ty.t | GlobalVar of string * Ty.t

type env = {
  checked : Typecheck.checked;
  prog : Prog.t;
  mutable strings : (string * string) list;  (* literal -> global name *)
  mutable nstrings : int;
}

type fenv = {
  b : B.t;
  genv : env;
  mutable vars : (string * var) list list;
  mutable allocas : Ir.instr list;           (* reversed; hoisted to entry *)
  mutable break_to : int list;
  mutable continue_to : int list;
}

let tenv fe = fe.genv.prog.Prog.tenv

let push fe = fe.vars <- [] :: fe.vars
let pop fe = fe.vars <- List.tl fe.vars

let bind fe name v =
  match fe.vars with
  | inner :: rest -> fe.vars <- ((name, v) :: inner) :: rest
  | [] -> assert false

let lookup_var fe name =
  let rec go = function
    | [] ->
      (* fall back to module-level globals *)
      (match Hashtbl.find_opt fe.genv.checked.Typecheck.global_tys name with
       | Some ty -> Some (GlobalVar (name, ty))
       | None -> None)
    | inner :: rest ->
      (match List.assoc_opt name inner with Some v -> Some v | None -> go rest)
  in
  go fe.vars

(** Allocate a hoisted stack slot of type [ty]; returns the register holding
    its address. *)
let alloca_hoisted fe ty =
  let dst = B.fresh_reg fe.b in
  fe.allocas <- Ir.Alloca { dst; ty; slot = Ir.Auto } :: fe.allocas;
  dst

(** Intern a string literal as a global char array; returns its name. *)
let intern_string genv s =
  match List.assoc_opt s genv.strings with
  | Some name -> name
  | None ->
    let name = Printf.sprintf ".str.%d" genv.nstrings in
    genv.nstrings <- genv.nstrings + 1;
    genv.strings <- (s, name) :: genv.strings;
    let cells =
      Array.init (String.length s + 1) (fun i ->
          if i < String.length s then Prog.Cint (Char.code s.[i]) else Prog.Cint 0)
    in
    Prog.add_global genv.prog
      { Prog.gname = name; gty = Ty.Arr (Ty.Char, String.length s + 1); init = cells };
    name

let elem_ty pos = function
  | Ty.Arr (t, _) -> t
  | Ty.Ptr t -> t
  | t -> error pos "expected array or pointer, got %s" (Ty.to_string t)

let rec lower_rvalue fe (e : expr) : Ir.operand =
  match e.desc with
  | EInt n -> Ir.Imm n
  | EChar c -> Ir.Imm (Char.code c)
  | EStr s -> Ir.Glob (intern_string fe.genv s)
  | EId name ->
    (match lookup_var fe name with
     | Some (Local (addr, ty)) ->
       (match ty with
        | Ty.Arr _ -> Ir.Reg addr           (* array decays to its address *)
        | _ -> Ir.Reg (B.load fe.b ty (Ir.Reg addr)))
     | Some (GlobalVar (g, ty)) ->
       (match ty with
        | Ty.Arr _ -> Ir.Glob g
        | _ -> Ir.Reg (B.load fe.b ty (Ir.Glob g)))
     | None ->
       if Hashtbl.mem fe.genv.checked.Typecheck.func_sigs name then Ir.Fun name
       else if List.mem_assoc name Typecheck.intrinsic_sigs then
         error e.pos "builtin %s can only be called" name
       else error e.pos "unbound identifier %s" name)
  | EBin ((Add | Sub) as op, a, b) -> lower_addsub fe e op a b
  | EBin ((Mul | Div | Rem | BAnd | BOr | BXor | Shl | Shr) as op, a, b) ->
    let ir_op =
      match op with
      | Mul -> Ir.Mul | Div -> Ir.Div | Rem -> Ir.Rem
      | BAnd -> Ir.And | BOr -> Ir.Or | BXor -> Ir.Xor
      | Shl -> Ir.Shl | Shr -> Ir.Shr
      | _ -> assert false
    in
    let va = lower_rvalue fe a in
    let vb = lower_rvalue fe b in
    Ir.Reg (B.bin fe.b ir_op va vb)
  | EBin ((Eq | Ne | Lt | Le | Gt | Ge) as op, a, b) ->
    let ir_op =
      match op with
      | Eq -> Ir.Eq | Ne -> Ir.Ne | Lt -> Ir.Lt
      | Le -> Ir.Le | Gt -> Ir.Gt | Ge -> Ir.Ge
      | _ -> assert false
    in
    let va = lower_rvalue fe a in
    let vb = lower_rvalue fe b in
    Ir.Reg (B.cmp fe.b ir_op va vb)
  | EBin (LAnd, a, b) -> lower_shortcircuit fe ~is_and:true a b
  | EBin (LOr, a, b) -> lower_shortcircuit fe ~is_and:false a b
  | EUn (Neg, a) ->
    let v = lower_rvalue fe a in
    Ir.Reg (B.bin fe.b Ir.Sub (Ir.Imm 0) v)
  | EUn (Not, a) ->
    let v = lower_rvalue fe a in
    Ir.Reg (B.cmp fe.b Ir.Eq v (Ir.Imm 0))
  | EUn (BNot, a) ->
    let v = lower_rvalue fe a in
    Ir.Reg (B.bin fe.b Ir.Xor v (Ir.Imm (-1)))
  | EAssign (lhs, rhs) ->
    let v = lower_rvalue fe rhs in
    let addr = lower_lvalue fe lhs in
    B.store fe.b lhs.ety v addr;
    v
  | ECond (c, a, b) ->
    let slot = alloca_hoisted fe Ty.Int in
    let vc = lower_rvalue fe c in
    let bthen = B.new_block fe.b in
    let belse = B.new_block fe.b in
    let bjoin = B.new_block fe.b in
    B.set_term fe.b (Ir.Br (vc, bthen, belse));
    B.position_at fe.b bthen;
    let va = lower_rvalue fe a in
    B.store fe.b Ty.Int va (Ir.Reg slot);
    B.set_term fe.b (Ir.Jmp bjoin);
    B.position_at fe.b belse;
    let vb = lower_rvalue fe b in
    B.store fe.b Ty.Int vb (Ir.Reg slot);
    B.set_term fe.b (Ir.Jmp bjoin);
    B.position_at fe.b bjoin;
    Ir.Reg (B.load fe.b Ty.Int (Ir.Reg slot))
  | ECall (callee, args) -> lower_call fe e callee args
  | EIndex _ | EField _ | EArrow _ | EDeref _ ->
    (match e.ety with
     | Ty.Arr _ -> lower_lvalue fe e      (* aggregate element decays *)
     | Ty.Struct _ -> lower_lvalue fe e   (* struct rvalue = its address *)
     | ty ->
       let addr = lower_lvalue fe e in
       Ir.Reg (B.load fe.b ty addr))
  | EAddr inner ->
    (match inner.desc with
     | EId name when Hashtbl.mem fe.genv.checked.Typecheck.func_sigs name -> Ir.Fun name
     | _ -> lower_lvalue fe inner)
  | ECast (ty, inner) ->
    let v = lower_rvalue fe inner in
    let src = (match inner.ety with Ty.Arr (t, _) -> Ty.Ptr t | t -> t) in
    let kind =
      match src, ty with
      | Ty.Ptr _, Ty.Ptr _ -> Ir.Bitcast
      | Ty.Ptr _, (Ty.Int | Ty.Char) -> Ir.PtrToInt
      | (Ty.Int | Ty.Char), Ty.Ptr _ -> Ir.IntToPtr
      | _, _ -> Ir.Bitcast
    in
    Ir.Reg (B.cast fe.b kind ty v)
  | ESizeof ty -> Ir.Imm (Ty.size_of (tenv fe) ty)

and lower_addsub fe _e op a b =
  let ta = (match a.ety with Ty.Arr (t, _) -> Ty.Ptr t | t -> t) in
  let tb = (match b.ety with Ty.Arr (t, _) -> Ty.Ptr t | t -> t) in
  match ta, tb, op with
  | Ty.Ptr t, (Ty.Int | Ty.Char), Add ->
    let base = lower_rvalue fe a in
    let idx = lower_rvalue fe b in
    Ir.Reg (B.gep fe.b ~base_ty:t ~base [ Ir.Index (t, idx) ])
  | Ty.Ptr t, (Ty.Int | Ty.Char), Sub ->
    let base = lower_rvalue fe a in
    let idx = lower_rvalue fe b in
    let neg = B.bin fe.b Ir.Sub (Ir.Imm 0) idx in
    Ir.Reg (B.gep fe.b ~base_ty:t ~base [ Ir.Index (t, Ir.Reg neg) ])
  | (Ty.Int | Ty.Char), Ty.Ptr t, Add ->
    let idx = lower_rvalue fe a in
    let base = lower_rvalue fe b in
    Ir.Reg (B.gep fe.b ~base_ty:t ~base [ Ir.Index (t, idx) ])
  | Ty.Ptr t, Ty.Ptr _, Sub ->
    let va = lower_rvalue fe a in
    let vb = lower_rvalue fe b in
    let diff = B.bin fe.b Ir.Sub va vb in
    let sz = Ty.size_of (tenv fe) t in
    if sz = 1 then Ir.Reg diff
    else Ir.Reg (B.bin fe.b Ir.Div (Ir.Reg diff) (Ir.Imm sz))
  | _, _, _ ->
    let ir_op = match op with Add -> Ir.Add | Sub -> Ir.Sub | _ -> assert false in
    let va = lower_rvalue fe a in
    let vb = lower_rvalue fe b in
    Ir.Reg (B.bin fe.b ir_op va vb)

and lower_shortcircuit fe ~is_and a b =
  let slot = alloca_hoisted fe Ty.Int in
  let va = lower_rvalue fe a in
  let nz_a = B.cmp fe.b Ir.Ne va (Ir.Imm 0) in
  B.store fe.b Ty.Int (Ir.Reg nz_a) (Ir.Reg slot);
  let beval = B.new_block fe.b in
  let bjoin = B.new_block fe.b in
  if is_and then B.set_term fe.b (Ir.Br (Ir.Reg nz_a, beval, bjoin))
  else B.set_term fe.b (Ir.Br (Ir.Reg nz_a, bjoin, beval));
  B.position_at fe.b beval;
  let vb = lower_rvalue fe b in
  let nz_b = B.cmp fe.b Ir.Ne vb (Ir.Imm 0) in
  B.store fe.b Ty.Int (Ir.Reg nz_b) (Ir.Reg slot);
  B.set_term fe.b (Ir.Jmp bjoin);
  B.position_at fe.b bjoin;
  Ir.Reg (B.load fe.b Ty.Int (Ir.Reg slot))

and lower_call fe e callee args =
  let lower_args () = List.map (lower_rvalue fe) args in
  match callee.desc with
  | EId name when lookup_var fe name = None
                  && not (Hashtbl.mem fe.genv.checked.Typecheck.func_sigs name) ->
    (* Built-in (intrinsic) call. *)
    let vargs = lower_args () in
    let name, vargs =
      if name = "gets" then ("read_input", vargs @ [ Ir.Imm (-1) ]) else (name, vargs)
    in
    (match Levee_ir.Instr.intrin_of_name name with
     | None -> error e.pos "unknown builtin %s" name
     | Some op ->
       let _, ret = List.assoc (Levee_ir.Instr.intrin_name op) Typecheck.intrinsic_sigs in
       (match B.intrin fe.b
                ?dst_ty:(if Ty.equal ret Ty.Void then None else Some ret)
                op vargs
        with
        | Some r -> Ir.Reg r
        | None -> Ir.Imm 0))
  | EId name when (match lookup_var fe name with Some _ -> false | None -> true) ->
    (* Direct call to a known function. *)
    let fsig = Hashtbl.find fe.genv.checked.Typecheck.func_sigs name in
    let vargs = lower_args () in
    let fty = Ty.Fn (fst fsig, snd fsig) in
    (match B.call fe.b ~fty ~ret_ty:(snd fsig) (Ir.Direct name) vargs with
     | Some r -> Ir.Reg r
     | None -> Ir.Imm 0)
  | _ ->
    (* Indirect call through a function pointer expression. *)
    let fp_expr =
      match callee.desc with
      | EDeref inner
        when (match inner.ety with Ty.Ptr (Ty.Fn _) -> true | _ -> false) ->
        inner
      | _ -> callee
    in
    let fp = lower_rvalue fe fp_expr in
    let fty =
      match (match fp_expr.ety with Ty.Arr (t, _) -> Ty.Ptr t | t -> t) with
      | Ty.Ptr (Ty.Fn _ as f) -> f
      | Ty.Fn _ as f -> f
      | t -> error e.pos "indirect call through non-function-pointer %s" (Ty.to_string t)
    in
    let ret = match fty with Ty.Fn (_, r) -> r | _ -> assert false in
    let vargs = lower_args () in
    (match B.call fe.b ~fty ~ret_ty:ret (Ir.Indirect fp) vargs with
     | Some r -> Ir.Reg r
     | None -> Ir.Imm 0)

(** Lower an lvalue expression to the address (operand) of the object. *)
and lower_lvalue fe (e : expr) : Ir.operand =
  match e.desc with
  | EId name ->
    (match lookup_var fe name with
     | Some (Local (addr, _)) -> Ir.Reg addr
     | Some (GlobalVar (g, _)) -> Ir.Glob g
     | None -> error e.pos "not an lvalue: %s" name)
  | EDeref inner -> lower_rvalue fe inner
  | EIndex (base, idx) ->
    let t = elem_ty e.pos (match base.ety with Ty.Arr _ as a -> a | t -> t) in
    let vbase = lower_rvalue fe base in   (* decayed to element pointer *)
    let vidx = lower_rvalue fe idx in
    Ir.Reg (B.gep fe.b ~base_ty:t ~base:vbase [ Ir.Index (t, vidx) ])
  | EField (base, fname) ->
    let sname =
      match base.ety with
      | Ty.Struct s -> s
      | t -> error e.pos "field access on %s" (Ty.to_string t)
    in
    let off, fty = Ty.field_offset (tenv fe) sname fname in
    let vbase = lower_lvalue fe base in
    Ir.Reg
      (B.gep fe.b ~base_ty:(Ty.Struct sname) ~base:vbase
         [ Ir.Field (fname, off, Ty.size_of (tenv fe) fty) ])
  | EArrow (base, fname) ->
    let sname =
      match (match base.ety with Ty.Arr (t, _) -> Ty.Ptr t | t -> t) with
      | Ty.Ptr (Ty.Struct s) -> s
      | t -> error e.pos "-> on %s" (Ty.to_string t)
    in
    let off, fty = Ty.field_offset (tenv fe) sname fname in
    let vbase = lower_rvalue fe base in
    Ir.Reg
      (B.gep fe.b ~base_ty:(Ty.Struct sname) ~base:vbase
         [ Ir.Field (fname, off, Ty.size_of (tenv fe) fty) ])
  | _ -> error e.pos "expression is not an lvalue"

let rec lower_stmt fe (s : stmt) =
  match s with
  | SExpr e -> ignore (lower_rvalue fe e)
  | SDecl (ty, name, init) ->
    let addr = alloca_hoisted fe ty in
    bind fe name (Local (addr, ty));
    (match init with
     | None -> ()
     | Some e ->
       let v = lower_rvalue fe e in
       B.store fe.b ty v (Ir.Reg addr))
  | SIf (c, thn, els) ->
    let vc = lower_rvalue fe c in
    let bthen = B.new_block fe.b in
    let belse = B.new_block fe.b in
    let bjoin = B.new_block fe.b in
    B.set_term fe.b (Ir.Br (vc, bthen, belse));
    B.position_at fe.b bthen;
    lower_block fe thn;
    B.set_term fe.b (Ir.Jmp bjoin);
    B.position_at fe.b belse;
    lower_block fe els;
    B.set_term fe.b (Ir.Jmp bjoin);
    B.position_at fe.b bjoin
  | SWhile (c, body) ->
    let bcond = B.new_block fe.b in
    let bbody = B.new_block fe.b in
    let bexit = B.new_block fe.b in
    B.set_term fe.b (Ir.Jmp bcond);
    B.position_at fe.b bcond;
    let vc = lower_rvalue fe c in
    B.set_term fe.b (Ir.Br (vc, bbody, bexit));
    B.position_at fe.b bbody;
    fe.break_to <- bexit :: fe.break_to;
    fe.continue_to <- bcond :: fe.continue_to;
    lower_block fe body;
    fe.break_to <- List.tl fe.break_to;
    fe.continue_to <- List.tl fe.continue_to;
    B.set_term fe.b (Ir.Jmp bcond);
    B.position_at fe.b bexit
  | SDoWhile (body, c) ->
    let bbody = B.new_block fe.b in
    let bcond = B.new_block fe.b in
    let bexit = B.new_block fe.b in
    B.set_term fe.b (Ir.Jmp bbody);
    B.position_at fe.b bbody;
    fe.break_to <- bexit :: fe.break_to;
    fe.continue_to <- bcond :: fe.continue_to;
    lower_block fe body;
    fe.break_to <- List.tl fe.break_to;
    fe.continue_to <- List.tl fe.continue_to;
    B.set_term fe.b (Ir.Jmp bcond);
    B.position_at fe.b bcond;
    let vc = lower_rvalue fe c in
    B.set_term fe.b (Ir.Br (vc, bbody, bexit));
    B.position_at fe.b bexit
  | SFor (init, cond, step, body) ->
    push fe;
    (match init with Some s -> lower_stmt fe s | None -> ());
    let bcond = B.new_block fe.b in
    let bbody = B.new_block fe.b in
    let bstep = B.new_block fe.b in
    let bexit = B.new_block fe.b in
    B.set_term fe.b (Ir.Jmp bcond);
    B.position_at fe.b bcond;
    (match cond with
     | Some c ->
       let vc = lower_rvalue fe c in
       B.set_term fe.b (Ir.Br (vc, bbody, bexit))
     | None -> B.set_term fe.b (Ir.Jmp bbody));
    B.position_at fe.b bbody;
    fe.break_to <- bexit :: fe.break_to;
    fe.continue_to <- bstep :: fe.continue_to;
    lower_block fe body;
    fe.break_to <- List.tl fe.break_to;
    fe.continue_to <- List.tl fe.continue_to;
    B.set_term fe.b (Ir.Jmp bstep);
    B.position_at fe.b bstep;
    (match step with Some e -> ignore (lower_rvalue fe e) | None -> ());
    B.set_term fe.b (Ir.Jmp bcond);
    B.position_at fe.b bexit;
    pop fe
  | SReturn (None, _) ->
    B.set_term fe.b (Ir.Ret None);
    B.position_at fe.b (B.new_block fe.b)
  | SReturn (Some e, _) ->
    let v = lower_rvalue fe e in
    B.set_term fe.b (Ir.Ret (Some v));
    B.position_at fe.b (B.new_block fe.b)
  | SBreak pos ->
    (match fe.break_to with
     | b :: _ ->
       B.set_term fe.b (Ir.Jmp b);
       B.position_at fe.b (B.new_block fe.b)
     | [] -> error pos "break outside loop")
  | SContinue pos ->
    (match fe.continue_to with
     | b :: _ ->
       B.set_term fe.b (Ir.Jmp b);
       B.position_at fe.b (B.new_block fe.b)
     | [] -> error pos "continue outside loop")
  | SBlock body -> lower_block fe body
  | SSeq body -> List.iter (lower_stmt fe) body

and lower_block fe body =
  push fe;
  List.iter (lower_stmt fe) body;
  pop fe

(** Flatten a global initializer against the layout of [ty]. *)
let rec flatten_ginit genv pos ty (init : ginit) : Prog.gcell list =
  let tenv = genv.prog.Prog.tenv in
  let zero n = List.init n (fun _ -> Prog.Cint 0) in
  match init, ty with
  | GNone, _ -> zero (Ty.size_of tenv ty)
  | GInt n, (Ty.Int | Ty.Char | Ty.Ptr _) -> [ Prog.Cint n ]
  | GStr s, Ty.Arr (Ty.Char, n) ->
    if String.length s + 1 > n then error pos "string initializer too long";
    List.init n (fun i ->
        if i < String.length s then Prog.Cint (Char.code s.[i]) else Prog.Cint 0)
  | GStr s, Ty.Ptr Ty.Char -> [ Prog.Cglob (intern_string genv s, 0) ]
  | GFun name, Ty.Ptr _ ->
    if Hashtbl.mem genv.checked.Typecheck.func_sigs name then [ Prog.Cfun name ]
    else if Hashtbl.mem genv.checked.Typecheck.global_tys name then
      [ Prog.Cglob (name, 0) ]
    else error pos "unknown name %s in initializer" name
  | GList items, Ty.Arr (et, _n) ->
    let cells = List.concat_map (flatten_ginit genv pos et) items in
    let pad = Ty.size_of tenv ty - List.length cells in
    if pad < 0 then error pos "too many array initializer elements";
    cells @ zero pad
  | GList items, Ty.Struct s ->
    let fields = Ty.struct_fields tenv s in
    if List.length items > List.length fields then
      error pos "too many struct initializer elements";
    let rec go fields items =
      match fields, items with
      | [], [] -> []
      | (_, fty) :: fs, [] -> zero (Ty.size_of tenv fty) @ go fs []
      | (_, fty) :: fs, it :: is -> flatten_ginit genv pos fty it @ go fs is
      | [], _ :: _ -> assert false
    in
    go fields items
  | _, _ -> error pos "initializer shape does not match type %s" (Ty.to_string ty)

let lower_func genv (fd : func_def) =
  let b = B.create ~name:fd.fd_name ~params:fd.fd_params ~ret_ty:fd.fd_ret in
  let fe = { b; genv; vars = [ [] ]; allocas = []; break_to = []; continue_to = [] } in
  (* Spill parameters to allocas so their address can be taken. *)
  List.iteri
    (fun i (name, ty) ->
      let addr = alloca_hoisted fe ty in
      B.store b ty (Ir.Reg (B.param_reg b i)) (Ir.Reg addr);
      bind fe name (Local (addr, ty)))
    fd.fd_params;
  lower_block fe fd.fd_body;
  (* Implicit return at the end of the function. *)
  (match fd.fd_ret with
   | Ty.Void -> B.set_term b (Ir.Ret None)
   | _ -> B.set_term b (Ir.Ret (Some (Ir.Imm 0))));
  let fn = B.finish b in
  (* Hoist allocas to the very start of the entry block. *)
  let allocas = Array.of_list (List.rev fe.allocas) in
  fn.Prog.blocks.(0).Prog.instrs <- Array.append allocas fn.Prog.blocks.(0).Prog.instrs;
  fn

(** Lower a checked program to IR. The result passes [Levee_ir.Verify]. *)
let lower (checked : Typecheck.checked) : Prog.t =
  let prog = Prog.create () in
  let genv = { checked; prog; strings = []; nstrings = 0 } in
  (* Structs first: layouts are needed everywhere. *)
  List.iter
    (function
      | TStruct (name, fields, sensitive) ->
        Ty.define_struct prog.Prog.tenv name fields;
        if sensitive then Ty.mark_sensitive prog.Prog.tenv name
      | TGlobal _ | TFunc _ -> ())
    checked.ast.tops;
  List.iter
    (function
      | TStruct _ -> ()
      | TGlobal (ty, name, init) ->
        let cells = Array.of_list (flatten_ginit genv 0 ty init) in
        Prog.add_global prog { Prog.gname = name; gty = ty; init = cells }
      | TFunc fd -> Prog.add_func prog (lower_func genv fd))
    checked.ast.tops;
  ignore (Prog.compute_address_taken prog);
  prog

(** Front-end convenience: parse, check and lower MiniC source. *)
let compile ?(name = "<input>") src : Prog.t =
  let ast = Parser.parse_program_exn ~name src in
  let checked =
    try Typecheck.check_program ast with
    | Typecheck.Type_error (msg, l) ->
      failwith (Printf.sprintf "%s:%d: type error: %s" name l msg)
  in
  let prog =
    try lower checked with
    | Lower_error (msg, l) ->
      failwith (Printf.sprintf "%s:%d: lowering error: %s" name l msg)
  in
  (match Levee_ir.Verify.program_result prog with
   | Ok () -> ()
   | Error e -> failwith (Printf.sprintf "%s: internal error: invalid IR: %s" name e));
  prog
