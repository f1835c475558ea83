(** Program loader.

    Assigns code addresses to every instruction (functions, blocks and
    return sites all have addresses, so corrupted code pointers can be
    decoded like a real instruction pointer), lays out globals in the
    regular region, resolves global initializers, and computes per-function
    frame layouts for the active configuration. The loader is trusted, as
    in the paper's threat model. *)

module Ty = Levee_ir.Ty
module Instr = Levee_ir.Instr
module Prog = Levee_ir.Prog
module Prepared = Levee_ir.Prepared

type code_point = { cp_fn : string; cp_block : int; cp_ip : int }

(** Metadata type the prepared program's resolved operands carry. *)
type pmeta = Meta.t option

(** Placement of one alloca slot within its frame. *)
type slot = {
  sl_on_safe : bool;      (* safe stack vs regular (unsafe) stack *)
  sl_offset : int;        (* addr = frame_base - sl_offset *)
  sl_size : int;
}

type frame_layout = {
  fl_slots : (int, slot) Hashtbl.t;  (* alloca dst register -> placement *)
  fl_regular_size : int;             (* incl. ret slot / cookie if regular *)
  fl_safe_size : int;
  fl_ret_on_safe : bool;
  fl_ret_offset : int;               (* from the frame base of its stack *)
  fl_cookie_offset : int option;     (* always on the regular stack *)
  fl_hot_words : int;                (* scalar locals: the cache-hot area *)
  fl_array_words : int;              (* aggregate locals *)
  fl_has_unsafe : bool;              (* needs a separate unsafe frame *)
}

(* The interpreter's compiled form of a function. The loader only holds
   the slots, so it stays free of the interpreter's types; see
   [loader.mli]. *)
type code = ..
type code += Not_compiled

type image = {
  prog : Prog.t;
  cfg : Config.t;
  slide : int;
  func_entry : (string, int) Hashtbl.t;
  addr_of_point : (string * int * int, int) Hashtbl.t;
  point_of_addr : (int, code_point) Hashtbl.t;
  return_sites : (int, unit) Hashtbl.t;     (* valid coarse-CFI return targets *)
  func_entries : (int, string) Hashtbl.t;   (* entry addr -> name *)
  global_addr : (string, int) Hashtbl.t;
  global_bounds : (string, int * int) Hashtbl.t;
  layouts : (string, frame_layout) Hashtbl.t;
  (* Decode-once layer: every function resolved at load time so the
     interpreter's hot loop never touches the hashtables above. *)
  p_funcs : pmeta Prepared.func array;      (* indexed by function index *)
  p_findex : (string, int) Hashtbl.t;       (* function name -> index *)
  entry_findex : (int, int) Hashtbl.t;      (* entry addr -> function index *)
  p_layouts : frame_layout array;           (* indexed by function index *)
  p_code : code array;                      (* indexed by function index *)
}

let layout_of_func tenv (cfg : Config.t) (fn : Prog.func) =
  let slots = Hashtbl.create 16 in
  let hot = ref 0 and arrays = ref 0 in
  let safe_off = ref 0 and reg_off = ref 0 in
  (* Return slot sits at the very top of its frame (offset 1 from base),
     the cookie just below it; buffers grow upward toward them. *)
  let ret_on_safe = cfg.Config.safe_stack in
  if ret_on_safe then safe_off := 1 else reg_off := 1;
  let ret_offset = 1 in
  let cookie_offset =
    if cfg.Config.check_cookies && fn.Prog.cookie then begin
      incr reg_off;
      Some !reg_off
    end
    else None
  in
  (* Collect allocas in program order; later allocas end up closer to the
     cookie/return slot, so overflowing any buffer can reach them. *)
  let allocas = ref [] in
  Prog.iter_instrs fn (fun i ->
      match i with
      | Instr.Alloca { dst; ty; slot } -> allocas := (dst, ty, slot) :: !allocas
      | _ -> ());
  let allocas = List.rev !allocas in
  let has_unsafe = ref false in
  (* Assign from the bottom of the frame upward: process in reverse order so
     the first-declared alloca gets the lowest address. *)
  List.iter
    (fun (dst, ty, slot_kind) ->
      let size = Ty.size_of tenv ty in
      (match ty with
       | Ty.Arr _ | Ty.Struct _ -> arrays := !arrays + size
       | _ -> hot := !hot + size);
      let on_safe =
        match slot_kind with
        | Instr.SafeSlot -> cfg.Config.safe_stack
        | Instr.UnsafeSlot | Instr.Auto -> false
      in
      if (not on_safe) && slot_kind = Instr.UnsafeSlot then has_unsafe := true;
      let off_ref = if on_safe then safe_off else reg_off in
      off_ref := !off_ref + size;
      Hashtbl.replace slots dst { sl_on_safe = on_safe; sl_offset = !off_ref; sl_size = size })
    allocas;
  { fl_slots = slots;
    fl_regular_size = !reg_off;
    fl_safe_size = !safe_off;
    fl_ret_on_safe = ret_on_safe;
    fl_ret_offset = ret_offset;
    fl_cookie_offset = cookie_offset;
    fl_hot_words = !hot;
    fl_array_words = !arrays;
    fl_has_unsafe = !has_unsafe }

(* ---------- Decode-once preparation ---------- *)

(* Resolve an operand: immediates and null become bare constants, global
   and function references become (address, metadata) constants. The
   metadata records are built once and shared by every execution of the
   instruction; they are immutable, so sharing is safe. *)
let prepare_operand ~global_addr ~global_bounds ~func_entry
    (o : Instr.operand) : pmeta Prepared.operand =
  match o with
  | Instr.Reg r -> Prepared.Reg r
  | Instr.Imm n -> Prepared.Const (n, None)
  | Instr.Nullp -> Prepared.Const (0, None)
  | Instr.Glob g ->
    let addr = Hashtbl.find global_addr g in
    let lo, hi = Hashtbl.find global_bounds g in
    Prepared.Const
      (addr, Some { Meta.lower = lo; upper = hi; tid = 0; kind = Safestore.Data })
  | Instr.Fun f ->
    let addr = Hashtbl.find func_entry f in
    Prepared.Const
      (addr,
       Some { Meta.lower = addr; upper = addr + 1; tid = 0; kind = Safestore.Code })

(* [block_base.(bid)] is the code address of (bid, ip=0); addresses within
   a block are consecutive, so every program-point address is one add away
   and preparing a function performs no [addr_of_point] probes. *)
let prepare_func ~tenv ~global_addr ~global_bounds ~func_entry ~block_base
    ~p_findex ~(layout : frame_layout) ~findex (fn : Prog.func) :
    pmeta Prepared.func =
  let op o = prepare_operand ~global_addr ~global_bounds ~func_entry o in
  let blocks =
    Array.map
      (fun (b : Prog.block) ->
        let instrs =
          Array.mapi
            (fun ip (i : Instr.instr) ->
              match i with
              | Instr.Alloca { dst; ty = _; slot = _ } ->
                let sl = Hashtbl.find layout.fl_slots dst in
                Prepared.Alloca
                  { dst; on_safe = sl.sl_on_safe; offset = sl.sl_offset;
                    size = sl.sl_size }
              | Instr.Bin { dst; op = bop; l; r } ->
                Prepared.Bin { dst; op = bop; l = op l; r = op r }
              | Instr.Cmp { dst; op = cop; l; r } ->
                Prepared.Cmp { dst; op = cop; l = op l; r = op r }
              | Instr.Load { dst; ty; addr; where; checked } ->
                Prepared.Load
                  { dst; what = Ty.to_string ty;
                    universal = Ty.is_universal_pointer ty; addr = op addr;
                    where; checked }
              | Instr.Store { ty; v; addr; where; checked } ->
                Prepared.Store
                  { what = Ty.to_string ty;
                    universal = Ty.is_universal_pointer ty; v = op v;
                    addr = op addr; where; checked }
              | Instr.Gep { dst; base_ty = _; base; path } ->
                Prepared.Gep
                  { dst; base = op base;
                    path =
                      Array.of_list
                        (List.map
                           (function
                             | Instr.Field (_, off, fsize) ->
                               Prepared.Field (off, fsize)
                             | Instr.Index (ty, idx) ->
                               Prepared.Index (Ty.size_of tenv ty, op idx))
                           path) }
              | Instr.Cast { dst; kind = _; ty = _; v } ->
                Prepared.Cast { dst; v = op v }
              | Instr.Call { dst; callee; args; fty = _; cfi_checked; cfi_set }
                ->
                let callee =
                  match callee with
                  | Instr.Direct name ->
                    Prepared.Direct (Hashtbl.find p_findex name)
                  | Instr.Indirect o -> Prepared.Indirect (op o)
                in
                (* Resolve the cfi-type target set to sorted entry
                   addresses once, at load time. *)
                let cfi_set =
                  match cfi_set with
                  | None -> None
                  | Some names ->
                    let addrs =
                      List.map (fun n -> Hashtbl.find func_entry n) names
                    in
                    let arr = Array.of_list addrs in
                    Array.sort compare arr;
                    Some arr
                in
                Prepared.Call
                  { dst; callee; args = Array.of_list (List.map op args);
                    cfi_checked; cfi_set;
                    (* The return address a call pushes: the code address
                       of the instruction after the call site. *)
                    ret_addr = block_base.(b.Prog.bid) + ip + 1 }
              | Instr.Intrin { dst; op = iop; args } ->
                Prepared.Intrin
                  { dst; op = iop; args = Array.of_list (List.map op args) })
            b.Prog.instrs
        in
        let term =
          match b.Prog.term with
          | Instr.Ret None -> Prepared.Ret None
          | Instr.Ret (Some o) -> Prepared.Ret (Some (op o))
          | Instr.Br (c, bt, bf) -> Prepared.Br (op c, bt, bf)
          | Instr.Jmp b -> Prepared.Jmp b
          | Instr.Switch (o, cases, dflt) ->
            Prepared.Switch (op o, Prepared.switch_table cases dflt)
          | Instr.Unreachable -> Prepared.Unreachable
        in
        { Prepared.instrs; term })
      fn.Prog.blocks
  in
  let addrs =
    Array.map
      (fun (b : Prog.block) ->
        let base = block_base.(b.Prog.bid) in
        Array.init (Array.length b.Prog.instrs + 1) (fun ip -> base + ip))
      fn.Prog.blocks
  in
  { Prepared.findex; fname = fn.Prog.fname; nregs = fn.Prog.nregs;
    nparams = List.length fn.Prog.params; blocks; addrs;
    entry_addr = Hashtbl.find func_entry fn.Prog.fname }

(** [load prog cfg] builds the image and the initial memory/metadata state
    for globals. Returns the image plus an initialization function that
    populates a fresh memory. *)
let load (prog : Prog.t) (cfg : Config.t) =
  let slide = if cfg.Config.aslr then Layout.aslr_slide else 0 in
  let func_entry = Hashtbl.create 16 in
  let addr_of_point = Hashtbl.create 256 in
  let point_of_addr = Hashtbl.create 256 in
  let return_sites = Hashtbl.create 64 in
  let func_entries = Hashtbl.create 16 in
  let next_code = ref (Layout.code_base + slide) in
  (* Per-function array of block base addresses (address of ip = 0),
     consumed by [prepare_func] below. *)
  let block_bases : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  Prog.iter_funcs prog (fun fn ->
      Hashtbl.replace func_entry fn.Prog.fname !next_code;
      Hashtbl.replace func_entries !next_code fn.Prog.fname;
      let bases = Array.make (Array.length fn.Prog.blocks) 0 in
      Hashtbl.replace block_bases fn.Prog.fname bases;
      Array.iter
        (fun (b : Prog.block) ->
          bases.(b.Prog.bid) <- !next_code;
          (* one address per instruction plus one for the terminator *)
          for ip = 0 to Array.length b.Prog.instrs do
            let addr = !next_code in
            incr next_code;
            Hashtbl.replace addr_of_point (fn.Prog.fname, b.Prog.bid, ip) addr;
            Hashtbl.replace point_of_addr addr
              { cp_fn = fn.Prog.fname; cp_block = b.Prog.bid; cp_ip = ip };
            (* the address after a call instruction is a return site *)
            if ip > 0 then
              (match b.Prog.instrs.(ip - 1) with
               | Instr.Call _ -> Hashtbl.replace return_sites addr ()
               | _ -> ())
          done)
        fn.Prog.blocks);
  (* Globals. *)
  let global_addr = Hashtbl.create 16 in
  let global_bounds = Hashtbl.create 16 in
  let next_g = ref (Layout.globals_base + slide) in
  List.iter
    (fun (g : Prog.global) ->
      let size = Ty.size_of prog.Prog.tenv g.Prog.gty in
      Hashtbl.replace global_addr g.Prog.gname !next_g;
      Hashtbl.replace global_bounds g.Prog.gname (!next_g, !next_g + size);
      next_g := !next_g + size + 1 (* one guard word between globals *))
    prog.Prog.globals;
  let layouts = Hashtbl.create 16 in
  Prog.iter_funcs prog (fun fn ->
      Hashtbl.replace layouts fn.Prog.fname
        (layout_of_func prog.Prog.tenv cfg fn));
  (* Decode-once layer: resolve every function into its prepared form. *)
  let funcs = ref [] in
  Prog.iter_funcs prog (fun fn -> funcs := fn :: !funcs);
  let funcs = Array.of_list (List.rev !funcs) in
  let p_findex = Hashtbl.create 16 in
  Array.iteri (fun i (fn : Prog.func) -> Hashtbl.replace p_findex fn.Prog.fname i) funcs;
  let entry_findex = Hashtbl.create 16 in
  Array.iteri
    (fun i (fn : Prog.func) ->
      Hashtbl.replace entry_findex (Hashtbl.find func_entry fn.Prog.fname) i)
    funcs;
  let p_layouts =
    Array.map (fun (fn : Prog.func) -> Hashtbl.find layouts fn.Prog.fname) funcs
  in
  let p_funcs =
    Array.mapi
      (fun i fn ->
        prepare_func ~tenv:prog.Prog.tenv ~global_addr ~global_bounds
          ~func_entry ~block_base:(Hashtbl.find block_bases fn.Prog.fname)
          ~p_findex ~layout:p_layouts.(i) ~findex:i fn)
      funcs
  in
  { prog; cfg; slide; func_entry; addr_of_point; point_of_addr;
    return_sites; func_entries; global_addr; global_bounds; layouts;
    p_funcs; p_findex; entry_findex; p_layouts;
    p_code = Array.make (Array.length p_funcs) Not_compiled }

(** Write global initializers into [mem]; code-pointer cells that the
    compiler/linker emitted (jump tables etc., Section 4 "binary level
    functionality") also get safe-store entries under CPI/CPS so that
    instrumented loads find them. *)
let init_globals (image : image) (mem : Mem.t) (store : Safestore.t) =
  let init_cells_into_store =
    (* CPI/CPS keep protected pointers in the safe store; SoftBound keeps
       bounds for every pointer in its metadata table — both need the
       loader to register pointer-valued initializers *)
    image.cfg.Config.enforce_code_meta || image.cfg.Config.check_libc
  in
  List.iter
    (fun (g : Prog.global) ->
      let base = Hashtbl.find image.global_addr g.Prog.gname in
      Array.iteri
        (fun i cell ->
          let v =
            match cell with
            | Prog.Cint n -> n
            | Prog.Cfun f -> Hashtbl.find image.func_entry f
            | Prog.Cglob (name, off) -> Hashtbl.find image.global_addr name + off
          in
          Mem.write mem (base + i) v;
          match cell with
          | Prog.Cfun _ when init_cells_into_store ->
            Safestore.set store (base + i)
              { Safestore.value = v; lower = v; upper = v + 1; tid = 0;
                kind = Safestore.Code }
          | Prog.Cglob (name, off) when init_cells_into_store ->
            let lo, hi = Hashtbl.find image.global_bounds name in
            Safestore.set store (base + i)
              { Safestore.value = v; lower = lo + off; upper = hi; tid = 0;
                kind = Safestore.Data }
          | Prog.Cint _ | Prog.Cfun _ | Prog.Cglob _ -> ())
        g.Prog.init)
    image.prog.Prog.globals

let entry_addr image name = Hashtbl.find image.func_entry name

(** Prepared form of a function. @raise Not_found if unknown. *)
let prepared image name = image.p_funcs.(Hashtbl.find image.p_findex name)

let point_addr image fname block ip =
  Hashtbl.find image.addr_of_point (fname, block, ip)

let decode image addr = Hashtbl.find_opt image.point_of_addr addr

let is_function_entry image addr = Hashtbl.mem image.func_entries addr
