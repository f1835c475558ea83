(** IR functions, globals and whole programs. *)

type block = {
  bid : int;
  mutable instrs : Instr.instr array;
  mutable term : Instr.term;
}

type func = {
  fname : string;
  params : (string * Ty.t) list;    (* bound to registers 0 .. n-1 on entry *)
  ret_ty : Ty.t;
  mutable blocks : block array;     (* blocks.(0) is the entry block *)
  mutable nregs : int;
  mutable cookie : bool;            (* stack-cookie pass: guard this frame *)
  mutable address_taken : bool;     (* is a legitimate indirect-call target *)
}

(** Initial contents of one word of a global object. *)
type gcell =
  | Cint of int
  | Cfun of string        (* code address of a function *)
  | Cglob of string * int (* address of a global plus word offset *)

type global = {
  gname : string;
  gty : Ty.t;
  init : gcell array;     (* length = size_of gty; zero-filled if shorter *)
}

type t = {
  tenv : Ty.env;
  mutable globals : global list;          (* in declaration order *)
  funcs : (string, func) Hashtbl.t;
  mutable func_order : string list;       (* declaration order *)
}

let create () =
  { tenv = Ty.create_env (); globals = []; funcs = Hashtbl.create 16; func_order = [] }

let add_func p f =
  if Hashtbl.mem p.funcs f.fname then
    invalid_arg ("Prog.add_func: duplicate function " ^ f.fname);
  Hashtbl.replace p.funcs f.fname f;
  p.func_order <- p.func_order @ [ f.fname ]

let find_func p name =
  match Hashtbl.find_opt p.funcs name with
  | Some f -> f
  | None -> invalid_arg ("Prog.find_func: unknown function " ^ name)

let has_func p name = Hashtbl.mem p.funcs name

let add_global p g = p.globals <- p.globals @ [ g ]

let find_global p name = List.find_opt (fun g -> g.gname = name) p.globals

let iter_funcs p f =
  List.iter (fun name -> f (Hashtbl.find p.funcs name)) p.func_order

let fold_funcs p f acc =
  List.fold_left (fun acc name -> f acc (Hashtbl.find p.funcs name)) acc p.func_order

(** Iterate over every instruction of a function. *)
let iter_instrs (fn : func) f =
  Array.iter (fun b -> Array.iter f b.instrs) fn.blocks

(** Copy of an instruction for another program copy: the variants with
    mutable fields are copied, so passes never share them between program
    copies; the immutable ones are shared. *)
let clone_instr (i : Instr.instr) : Instr.instr =
  match i with
  | Instr.Alloca { dst; ty; slot } -> Instr.Alloca { dst; ty; slot }
  | Instr.Load { dst; ty; addr; where; checked } ->
    Instr.Load { dst; ty; addr; where; checked }
  | Instr.Store { ty; v; addr; where; checked } ->
    Instr.Store { ty; v; addr; where; checked }
  | Instr.Call { dst; callee; args; fty; cfi_checked; cfi_set } ->
    Instr.Call { dst; callee; args; fty; cfi_checked; cfi_set }
  | Instr.Bin _ | Instr.Cmp _ | Instr.Gep _ | Instr.Cast _ | Instr.Intrin _ -> i

let clone_func (fn : func) : func =
  { fn with
    blocks =
      Array.map
        (fun b -> { b with instrs = Array.map clone_instr b.instrs })
        fn.blocks }

(** Copy of a program, for instrumenting the same module under several
    protection configurations. The immutable instructions, the type
    environment and the globals are shared. *)
let clone (p : t) : t =
  let funcs = Hashtbl.create (Hashtbl.length p.funcs) in
  Hashtbl.iter (fun name fn -> Hashtbl.replace funcs name (clone_func fn)) p.funcs;
  { tenv = p.tenv; globals = p.globals; funcs; func_order = p.func_order }

(** Functions whose address is taken anywhere in the program (operand
    [Fun f] outside of direct calls, or stored in global initializers).
    This is the valid-target set that a CFI pass would compute. *)
let compute_address_taken (p : t) =
  let taken = Hashtbl.create 16 in
  let mark name = Hashtbl.replace taken name () in
  let check_op = function Instr.Fun f -> mark f | _ -> () in
  let check_instr (i : Instr.instr) =
    match i with
    | Instr.Bin { l; r; _ } | Instr.Cmp { l; r; _ } -> check_op l; check_op r
    | Instr.Load { addr; _ } -> check_op addr
    | Instr.Store { v; addr; _ } -> check_op v; check_op addr
    | Instr.Gep { base; path; _ } ->
      check_op base;
      List.iter (function Instr.Index (_, o) -> check_op o | Instr.Field _ -> ()) path
    | Instr.Cast { v; _ } -> check_op v
    | Instr.Call { callee; args; _ } ->
      (match callee with Instr.Indirect o -> check_op o | Instr.Direct _ -> ());
      List.iter check_op args
    | Instr.Intrin { args; _ } -> List.iter check_op args
    | Instr.Alloca _ -> ()
  in
  iter_funcs p (fun fn ->
      iter_instrs fn check_instr;
      Array.iter
        (fun b ->
          match b.term with
          | Instr.Ret (Some o) -> check_op o
          | Instr.Br (o, _, _) | Instr.Switch (o, _, _) -> check_op o
          | Instr.Ret None | Instr.Jmp _ | Instr.Unreachable -> ())
        fn.blocks);
  List.iter
    (fun g ->
      Array.iter (function Cfun f -> mark f | Cint _ | Cglob _ -> ()) g.init)
    p.globals;
  iter_funcs p (fun fn -> fn.address_taken <- Hashtbl.mem taken fn.fname);
  taken
