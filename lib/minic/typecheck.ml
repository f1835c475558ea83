(** MiniC type checker.

    Annotates every expression with its static type (filling [Ast.expr.ety])
    and validates the program. The static types recorded here are exactly
    what the sensitivity analysis (Section 3.2.1) consumes: they distinguish
    function pointers, pointers to sensitive composites, and universal
    pointers. *)

module Ty = Levee_ir.Ty
open Ast

exception Type_error of string * int

let error pos fmt = Printf.ksprintf (fun msg -> raise (Type_error (msg, pos))) fmt

(** Signatures of the built-in functions (modelled libc + test harness). *)
let intrinsic_sigs : (string * (Ty.t list * Ty.t)) list =
  [ "malloc", ([ Ty.Int ], Ty.Ptr Ty.Void);
    "free", ([ Ty.Ptr Ty.Void ], Ty.Void);
    "memcpy", ([ Ty.Ptr Ty.Void; Ty.Ptr Ty.Void; Ty.Int ], Ty.Void);
    "memset", ([ Ty.Ptr Ty.Void; Ty.Int; Ty.Int ], Ty.Void);
    "strcpy", ([ Ty.Ptr Ty.Char; Ty.Ptr Ty.Char ], Ty.Void);
    "strlen", ([ Ty.Ptr Ty.Char ], Ty.Int);
    "strcmp", ([ Ty.Ptr Ty.Char; Ty.Ptr Ty.Char ], Ty.Int);
    "gets", ([ Ty.Ptr Ty.Char ], Ty.Int);
    "read_input", ([ Ty.Ptr Ty.Void; Ty.Int ], Ty.Int);
    "read_int", ([], Ty.Int);
    "print_int", ([ Ty.Int ], Ty.Void);
    "print_str", ([ Ty.Ptr Ty.Char ], Ty.Void);
    "checksum", ([ Ty.Int ], Ty.Void);
    "setjmp", ([ Ty.Ptr Ty.Int ], Ty.Int);
    "longjmp", ([ Ty.Ptr Ty.Int; Ty.Int ], Ty.Void);
    "system", ([ Ty.Ptr Ty.Char ], Ty.Int);
    "exit", ([ Ty.Int ], Ty.Void);
    "abort", ([], Ty.Void);
    "thread_spawn", ([ Ty.Ptr (Ty.Fn ([ Ty.Int ], Ty.Int)); Ty.Int ], Ty.Int);
    "thread_join", ([ Ty.Int ], Ty.Int);
    "mutex_lock", ([ Ty.Ptr Ty.Void ], Ty.Void);
    "mutex_unlock", ([ Ty.Ptr Ty.Void ], Ty.Void);
    "atomic_add", ([ Ty.Ptr Ty.Int; Ty.Int ], Ty.Int) ]

type checked = {
  ast : program;
  tenv : Ty.env;
  global_tys : (string, Ty.t) Hashtbl.t;
  func_sigs : (string, Ty.t list * Ty.t) Hashtbl.t;
}

type scope = {
  mutable vars : (string * Ty.t) list list;  (* innermost scope first *)
}

let push_scope sc = sc.vars <- [] :: sc.vars
let pop_scope sc =
  match sc.vars with
  | _ :: rest -> sc.vars <- rest
  | [] -> assert false

let declare sc pos name ty =
  match sc.vars with
  | inner :: rest ->
    if List.mem_assoc name inner then error pos "redeclaration of %s" name;
    sc.vars <- ((name, ty) :: inner) :: rest
  | [] -> assert false

let lookup sc name =
  let rec go = function
    | [] -> None
    | inner :: rest ->
      (match List.assoc_opt name inner with Some ty -> Some ty | None -> go rest)
  in
  go sc.vars

let is_scalar = function
  | Ty.Int | Ty.Char | Ty.Ptr _ -> true
  | Ty.Void | Ty.Fn _ | Ty.Struct _ | Ty.Arr _ -> false

(** Array-to-pointer decay, as applied in rvalue contexts. *)
let decay = function Ty.Arr (t, _) -> Ty.Ptr t | t -> t

(** Implicit convertibility of [src] into [dst] (assignment, argument and
    return contexts): exact match, int/char interchange, null constants,
    any-pointer to/from universal pointers. *)
let rec compatible env dst src =
  Ty.equal dst src
  || (match dst, src with
      | (Ty.Int | Ty.Char), (Ty.Int | Ty.Char) -> true
      | Ty.Ptr Ty.Void, Ty.Ptr _ | Ty.Ptr _, Ty.Ptr Ty.Void -> true
      | Ty.Ptr Ty.Char, Ty.Ptr _ | Ty.Ptr _, Ty.Ptr Ty.Char -> true
      | Ty.Ptr a, Ty.Ptr b -> compatible env a b
      | _, _ -> false)

let check_program (ast : program) : checked =
  let tenv = Ty.create_env () in
  let global_tys = Hashtbl.create 16 in
  let func_sigs = Hashtbl.create 16 in
  (* Pass 1: collect structs, globals and function signatures so that
     forward references work. *)
  List.iter
    (function
      | TStruct (name, fields, _) -> Ty.define_struct tenv name fields
      | TGlobal (ty, name, _) ->
        if Hashtbl.mem global_tys name then
          error 0 "duplicate global %s" name;
        Hashtbl.replace global_tys name ty
      | TFunc fd ->
        if Hashtbl.mem func_sigs fd.fd_name then
          error fd.fd_pos "duplicate function %s" fd.fd_name;
        Hashtbl.replace func_sigs fd.fd_name (List.map snd fd.fd_params, fd.fd_ret))
    ast.tops;
  (* Validate that all struct field types are well-formed. *)
  let rec check_ty pos = function
    | Ty.Struct s ->
      if not (Hashtbl.mem tenv.Ty.structs s) then error pos "unknown struct %s" s
    | Ty.Ptr t -> (match t with Ty.Struct _ -> () (* opaque fwd ok *) | t -> check_ty pos t)
    | Ty.Arr (t, n) ->
      if n <= 0 then error pos "non-positive array size";
      check_ty pos t
    | Ty.Fn (args, ret) -> List.iter (check_ty pos) args; check_ty pos ret
    | Ty.Int | Ty.Char | Ty.Void -> ()
  in
  Hashtbl.iter
    (fun sname fields ->
      List.iter (fun (_, fty) ->
          check_ty 0 fty;
          match fty with
          | Ty.Struct inner when inner = sname -> error 0 "struct %s contains itself" sname
          | _ -> ())
        fields)
    tenv.Ty.structs;
  Hashtbl.iter (fun _ ty -> check_ty 0 ty) global_tys;

  let rec check_expr sc (e : expr) : Ty.t =
    let ty = infer sc e in
    e.ety <- ty;
    ty

  and infer sc e =
    match e.desc with
    | EInt _ -> Ty.Int
    | EChar _ -> Ty.Char
    | EStr _ -> Ty.Ptr Ty.Char
    | EId name ->
      (match lookup sc name with
       | Some ty -> ty
       | None ->
         (match Hashtbl.find_opt global_tys name with
          | Some ty -> ty
          | None ->
            (match Hashtbl.find_opt func_sigs name with
             | Some (args, ret) -> Ty.Ptr (Ty.Fn (args, ret))
             | None ->
               if List.mem_assoc name intrinsic_sigs then
                 let args, ret = List.assoc name intrinsic_sigs in
                 Ty.Ptr (Ty.Fn (args, ret))
               else error e.pos "unknown identifier %s" name)))
    | EBin ((Add | Sub), a, b) ->
      let ta = decay (check_expr sc a) and tb = decay (check_expr sc b) in
      (match ta, tb with
       | Ty.Ptr _, (Ty.Int | Ty.Char) -> ta
       | (Ty.Int | Ty.Char), Ty.Ptr _ ->
         (match e.desc with
          | EBin (Add, _, _) -> tb
          | _ -> error e.pos "cannot subtract pointer from integer")
       | Ty.Ptr _, Ty.Ptr _ ->
         (match e.desc with
          | EBin (Sub, _, _) -> Ty.Int
          | _ -> error e.pos "cannot add two pointers")
       | (Ty.Int | Ty.Char), (Ty.Int | Ty.Char) -> Ty.Int
       | _, _ -> error e.pos "bad operands for +/- (%s, %s)" (Ty.to_string ta) (Ty.to_string tb))
    | EBin ((Mul | Div | Rem | BAnd | BOr | BXor | Shl | Shr), a, b) ->
      let ta = decay (check_expr sc a) and tb = decay (check_expr sc b) in
      (match ta, tb with
       | (Ty.Int | Ty.Char), (Ty.Int | Ty.Char) -> Ty.Int
       | _, _ -> error e.pos "arithmetic on non-integers (%s, %s)" (Ty.to_string ta) (Ty.to_string tb))
    | EBin ((Eq | Ne | Lt | Le | Gt | Ge), a, b) ->
      let ta = decay (check_expr sc a) and tb = decay (check_expr sc b) in
      if is_scalar ta && is_scalar tb then Ty.Int
      else error e.pos "comparison of non-scalars"
    | EBin ((LAnd | LOr), a, b) ->
      let ta = decay (check_expr sc a) and tb = decay (check_expr sc b) in
      if is_scalar ta && is_scalar tb then Ty.Int
      else error e.pos "logical op on non-scalars"
    | EUn (Neg, a) | EUn (BNot, a) ->
      (match decay (check_expr sc a) with
       | Ty.Int | Ty.Char -> Ty.Int
       | t -> error e.pos "unary arithmetic on %s" (Ty.to_string t))
    | EUn (Not, a) ->
      if is_scalar (decay (check_expr sc a)) then Ty.Int
      else error e.pos "! on non-scalar"
    | EAssign (lhs, rhs) ->
      let tl = check_lvalue sc lhs in
      let tr = decay (check_expr sc rhs) in
      (match tl with
       | Ty.Arr _ -> error e.pos "cannot assign to array"
       | Ty.Struct _ -> error e.pos "struct assignment not supported; copy fields"
       | _ ->
         if compatible tenv tl tr then tl
         else if (match tl, rhs.desc with Ty.Ptr _, EInt 0 -> true | _ -> false) then tl
         else
           error e.pos "incompatible assignment: %s = %s"
             (Ty.to_string tl) (Ty.to_string tr))
    | ECond (c, a, b) ->
      if not (is_scalar (decay (check_expr sc c))) then
        error e.pos "condition must be scalar";
      let ta = decay (check_expr sc a) and tb = decay (check_expr sc b) in
      if compatible tenv ta tb then ta
      else error e.pos "branches of ?: have incompatible types"
    | ECall (callee, args) ->
      let fty =
        match callee.desc with
        | EId _ -> check_expr sc callee
        | EDeref inner ->
          (* calling through "star fp" where fp is a function pointer is
             the same call as fp(...); through a pointer-to-function-pointer
             it is a genuine load *)
          let t = check_expr sc inner in
          (match t with
           | Ty.Ptr (Ty.Fn _) -> callee.ety <- t; t
           | _ -> check_expr sc callee)
        | _ -> check_expr sc callee
      in
      let params, ret =
        match decay fty with
        | Ty.Ptr (Ty.Fn (params, ret)) | Ty.Fn (params, ret) -> (params, ret)
        | t -> error e.pos "called value is not a function: %s" (Ty.to_string t)
      in
      if List.length params <> List.length args then
        error e.pos "wrong number of arguments (%d expected, %d given)"
          (List.length params) (List.length args);
      List.iter2
        (fun pty arg ->
          let aty = decay (check_expr sc arg) in
          if not (compatible tenv pty aty
                  || (match pty, arg.desc with Ty.Ptr _, EInt 0 -> true | _ -> false))
          then
            error arg.pos "argument type mismatch: expected %s, got %s"
              (Ty.to_string pty) (Ty.to_string aty))
        params args;
      ret
    | EIndex (base, idx) ->
      (match decay (check_expr sc idx) with
       | Ty.Int | Ty.Char -> ()
       | t -> error e.pos "array index must be integer, got %s" (Ty.to_string t));
      (match check_expr sc base with
       | Ty.Arr (t, _) -> t
       | Ty.Ptr t when not (Ty.equal t Ty.Void) -> t
       | t -> error e.pos "cannot index %s" (Ty.to_string t))
    | EField (base, fname) ->
      (match check_expr sc base with
       | Ty.Struct s ->
         let _, fty = Ty.field_offset tenv s fname in
         fty
       | t -> error e.pos "field access on non-struct %s" (Ty.to_string t))
    | EArrow (base, fname) ->
      (match decay (check_expr sc base) with
       | Ty.Ptr (Ty.Struct s) ->
         let _, fty = Ty.field_offset tenv s fname in
         fty
       | t -> error e.pos "-> on non-struct-pointer %s" (Ty.to_string t))
    | EDeref inner ->
      (match decay (check_expr sc inner) with
       | Ty.Ptr Ty.Void -> error e.pos "cannot dereference void*"
       | Ty.Ptr t -> t
       | t -> error e.pos "cannot dereference %s" (Ty.to_string t))
    | EAddr inner ->
      (match inner.desc with
       | EId name when Hashtbl.mem func_sigs name ->
         (* &f on a function yields the function pointer itself *)
         check_expr sc inner
       | _ ->
         let t = check_lvalue sc inner in
         Ty.Ptr t)
    | ECast (ty, inner) ->
      let src = decay (check_expr sc inner) in
      (match ty, src with
       | (Ty.Int | Ty.Char | Ty.Ptr _), (Ty.Int | Ty.Char | Ty.Ptr _) -> ty
       | _, _ ->
         error e.pos "invalid cast from %s to %s" (Ty.to_string src) (Ty.to_string ty))
    | ESizeof _ -> Ty.Int

  (* Lvalue checking: returns the object type (arrays NOT decayed). *)
  and check_lvalue sc (e : expr) : Ty.t =
    match e.desc with
    | EId name ->
      (match lookup sc name with
       | Some ty -> e.ety <- ty; ty
       | None ->
         (match Hashtbl.find_opt global_tys name with
          | Some ty -> e.ety <- ty; ty
          | None -> error e.pos "unknown or non-assignable identifier %s" name))
    | EDeref _ | EIndex _ | EField _ | EArrow _ ->
      let t = check_expr sc e in
      t
    | _ -> error e.pos "expression is not an lvalue"
  in

  let rec check_stmt sc ~ret ~inloop (s : stmt) =
    match s with
    | SExpr e -> ignore (check_expr sc e)
    | SDecl (ty, name, init) ->
      check_ty 0 ty;
      (match ty with
       | Ty.Void -> error 0 "cannot declare void variable %s" name
       | _ -> ());
      declare sc 0 name ty;
      (match init with
       | None -> ()
       | Some e ->
         let te = decay (check_expr sc e) in
         if not (compatible tenv (decay ty) te
                 || (match ty, e.desc with Ty.Ptr _, EInt 0 -> true | _ -> false))
         then
           error e.pos "initializer type mismatch for %s: %s vs %s" name
             (Ty.to_string ty) (Ty.to_string te))
    | SIf (c, thn, els) ->
      if not (is_scalar (decay (check_expr sc c))) then error c.pos "if condition must be scalar";
      check_block sc ~ret ~inloop thn;
      check_block sc ~ret ~inloop els
    | SWhile (c, body) ->
      if not (is_scalar (decay (check_expr sc c))) then error c.pos "while condition must be scalar";
      check_block sc ~ret ~inloop:true body
    | SDoWhile (body, c) ->
      check_block sc ~ret ~inloop:true body;
      if not (is_scalar (decay (check_expr sc c))) then error c.pos "do-while condition must be scalar"
    | SFor (init, cond, step, body) ->
      push_scope sc;
      (match init with Some s -> check_stmt sc ~ret ~inloop s | None -> ());
      (match cond with
       | Some c ->
         if not (is_scalar (decay (check_expr sc c))) then
           error c.pos "for condition must be scalar"
       | None -> ());
      (match step with Some e -> ignore (check_expr sc e) | None -> ());
      check_block sc ~ret ~inloop:true body;
      pop_scope sc
    | SReturn (None, pos) ->
      if not (Ty.equal ret Ty.Void) then error pos "return without value in non-void function"
    | SReturn (Some e, pos) ->
      if Ty.equal ret Ty.Void then error pos "return with value in void function";
      let te = decay (check_expr sc e) in
      if not (compatible tenv ret te
              || (match ret, e.desc with Ty.Ptr _, EInt 0 -> true | _ -> false))
      then error pos "return type mismatch: %s vs %s" (Ty.to_string ret) (Ty.to_string te)
    | SBreak pos -> if not inloop then error pos "break outside loop"
    | SContinue pos -> if not inloop then error pos "continue outside loop"
    | SBlock body -> check_block sc ~ret ~inloop body
    | SSeq body -> List.iter (check_stmt sc ~ret ~inloop) body

  and check_block sc ~ret ~inloop body =
    push_scope sc;
    List.iter (check_stmt sc ~ret ~inloop) body;
    pop_scope sc
  in

  List.iter
    (function
      | TStruct _ -> ()
      | TGlobal (ty, name, init) ->
        (match ty with
         | Ty.Void -> error 0 "cannot declare void global %s" name
         | _ -> ());
        (* Initializer shape checking is done during lowering where the
           layout is computed; here we only check simple scalar inits. *)
        (match init, ty with
         | GFun f, _ when not (Hashtbl.mem func_sigs f || Hashtbl.mem global_tys f) ->
           error 0 "global %s initialized with unknown name %s" name f
         | _ -> ())
      | TFunc fd ->
        let sc = { vars = [] } in
        push_scope sc;
        List.iter
          (fun (n, ty) ->
            (match ty with
             | Ty.Void -> error fd.fd_pos "void parameter %s in %s" n fd.fd_name
             | Ty.Struct _ -> error fd.fd_pos "struct-by-value parameter %s in %s" n fd.fd_name
             | _ -> ());
            declare sc fd.fd_pos n ty)
          fd.fd_params;
        (match fd.fd_ret with
         | Ty.Struct _ | Ty.Arr _ -> error fd.fd_pos "function %s returns an aggregate" fd.fd_name
         | _ -> ());
        check_block sc ~ret:fd.fd_ret ~inloop:false fd.fd_body;
        pop_scope sc)
    ast.tops;
  { ast; tenv; global_tys; func_sigs }
