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
  knobs : Instr.knob array array;   (* a build's decisions, .(bid).(idx);
                                       [||] in a source function *)
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

(** Iterate over every instruction of a function with its position
    (block id, index in the block). *)
let iteri_instrs (fn : func) f =
  Array.iter (fun b -> Array.iteri (fun idx i -> f b.bid idx i) b.instrs) fn.blocks

(** A build of a program: each function gets a fresh record with one
    [Plain] knob per instruction; blocks, instructions, the type
    environment and the globals are shared with [src]. *)
let build (src : t) : t =
  let funcs = Hashtbl.copy src.funcs in
  Hashtbl.filter_map_inplace
    (fun _ fn ->
      let plain b = Array.make (Array.length b.instrs) Instr.Plain in
      Some { fn with knobs = Array.map plain fn.blocks })
    funcs;
  { src with funcs }

let knob (fn : func) bid idx =
  if Array.length fn.knobs = 0 then Instr.Plain else fn.knobs.(bid).(idx)

let access fn bid idx =
  match knob fn bid idx with
  | Instr.Access (w, c) -> (w, c)
  | Instr.Plain | Instr.Slot _ | Instr.Cfi _ | Instr.Safe_memop ->
    (Instr.Regular, false)

let decide (fn : func) bid idx (k : Instr.knob) =
  let refuse what =
    invalid_arg
      (Printf.sprintf "Prog.decide: %s at b%d.%d in %s" what bid idx fn.fname)
  in
  if Array.length fn.knobs = 0 then refuse "no knobs (a source function)";
  (match k, fn.blocks.(bid).instrs.(idx) with
   | Instr.Plain, _
   | Instr.Access _, (Instr.Load _ | Instr.Store _)
   | Instr.Slot _, Instr.Alloca _
   | Instr.Cfi _, Instr.Call { callee = Instr.Indirect _; _ }
   | Instr.Safe_memop, Instr.Intrin { op = Instr.I_memcpy | Instr.I_memset; _ }
     -> ()
   | Instr.Access _, _ -> refuse "an access knob off a load or store"
   | Instr.Slot _, _ -> refuse "a slot knob off an alloca"
   | Instr.Cfi _, _ -> refuse "a cfi knob off an indirect call"
   | Instr.Safe_memop, _ -> refuse "a safe-memop knob off memcpy/memset");
  fn.knobs.(bid).(idx) <- k

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
