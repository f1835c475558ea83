(** Program loader.

    Assigns code addresses to every instruction (functions, blocks and
    return sites all have addresses, so corrupted code pointers can be
    decoded like a real instruction pointer), lays out globals in the
    regular region, resolves global initializers, and computes per-function
    frame layouts for the active configuration. The loader is trusted, as
    in the paper's threat model. Addresses are arithmetic and a function's
    frame layout is built on first use, so loading does no work per
    instruction; see [loader.mli] for how, and for the invariants this
    relies on. *)

module Ty = Levee_ir.Ty
module Instr = Levee_ir.Instr
module Prog = Levee_ir.Prog

type code_point = { cp_fn : string; cp_block : int; cp_ip : int }

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
  fl_has_unsafe : bool;              (* needs a separate unsafe frame *)
}

(* The interpreter's compiled form of a function. The loader only holds
   the slots, so it stays free of the interpreter's types; see
   [loader.mli]. *)
type code = ..
type code += Not_compiled

(* A function's state, built on first use; see [loader.mli]. *)
type fn = {
  layout : frame_layout;
  mutable code : code;
}

type image = {
  prog : Prog.t;
  cfg : Config.t;
  slide : int;
  global_addr : (string, int) Hashtbl.t;
  global_bounds : (string, int * int) Hashtbl.t;
  funcs : Prog.func array;                  (* by function index, code order *)
  fn_index : (string, int) Hashtbl.t;       (* function name -> index *)
  entries : int array;                      (* entry address, by index *)
  block_base : int array array;             (* address of (block, 0) *)
  code_end : int;                           (* first address past the code *)
  fns : fn array;                           (* [untouched] until first used *)
}

let layout_of_func tenv (cfg : Config.t) (fn : Prog.func) =
  let slots = Hashtbl.create 16 in
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
  Prog.iteri_instrs fn (fun bid idx i ->
      match i, Prog.knob fn bid idx with
      | Instr.Alloca { dst; ty }, Instr.Slot slot ->
        allocas := (dst, ty, slot) :: !allocas
      | Instr.Alloca { dst; ty }, _ -> allocas := (dst, ty, Instr.Auto) :: !allocas
      | _ -> ());
  let allocas = List.rev !allocas in
  let has_unsafe = ref false in
  (* Assign from the bottom of the frame upward: process in reverse order so
     the first-declared alloca gets the lowest address. *)
  List.iter
    (fun (dst, ty, slot_kind) ->
      let size = Ty.size_of tenv ty in
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
    fl_has_unsafe = !has_unsafe }

(* ---------- Code addresses ---------- *)

let entry_addr image name = image.entries.(Hashtbl.find image.fn_index name)

(* Largest [i] with [a.(i) <= x] in the strictly increasing array [a], or
   -1 if there is none. *)
let floor_index (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get a mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo - 1

let entry_index image addr =
  let i = floor_index image.entries addr in
  if i >= 0 && Array.unsafe_get image.entries i = addr then i else -1

let is_function_entry image addr = entry_index image addr >= 0

let decode image addr =
  let f = if addr < image.code_end then floor_index image.entries addr else -1 in
  if f < 0 then None
  else begin
    let bases = image.block_base.(f) in
    let b = floor_index bases addr in
    Some
      { cp_fn = image.funcs.(f).Prog.fname; cp_block = b;
        cp_ip = addr - bases.(b) }
  end

let is_return_site image addr =
  match decode image addr with
  | Some cp when cp.cp_ip > 0 ->
    let b = (Prog.find_func image.prog cp.cp_fn).Prog.blocks.(cp.cp_block) in
    (match b.Prog.instrs.(cp.cp_ip - 1) with Instr.Call _ -> true | _ -> false)
  | Some _ | None -> false

let point_addr image fname block ip =
  let f = Hashtbl.find image.fn_index fname in
  let blocks = image.funcs.(f).Prog.blocks in
  if block < 0 || block >= Array.length blocks || ip < 0
     || ip > Array.length blocks.(block).Prog.instrs
  then raise Not_found;
  image.block_base.(f).(block) + ip

(* ---------- First-use layout ---------- *)

let untouched =
  { layout =
      { fl_slots = Hashtbl.create 1; fl_regular_size = 0; fl_safe_size = 0;
        fl_ret_on_safe = false; fl_ret_offset = 0; fl_cookie_offset = None;
        fl_has_unsafe = false };
    code = Not_compiled }

let fn image i =
  let s = image.fns.(i) in
  if s != untouched then s
  else begin
    let layout =
      layout_of_func image.prog.Prog.tenv image.cfg image.funcs.(i)
    in
    let s = { layout; code = Not_compiled } in
    image.fns.(i) <- s;
    s
  end

let layout image name = (fn image (Hashtbl.find image.fn_index name)).layout

(* ---------- Loading ---------- *)

let load (prog : Prog.t) (cfg : Config.t) =
  let slide = if cfg.Config.aslr then Layout.aslr_slide else 0 in
  let funcs =
    Array.of_list (List.rev (Prog.fold_funcs prog (fun l f -> f :: l) []))
  in
  let fn_index = Hashtbl.create (Array.length funcs) in
  let entries = Array.make (Array.length funcs) 0 in
  let next_code = ref (Layout.code_base + slide) in
  let block_base =
    Array.mapi
      (fun i (fn : Prog.func) ->
        Hashtbl.replace fn_index fn.Prog.fname i;
        entries.(i) <- !next_code;
        Array.map
          (fun (b : Prog.block) ->
            let base = !next_code in
            (* one address per instruction plus one for the terminator *)
            next_code := base + Array.length b.Prog.instrs + 1;
            base)
          fn.Prog.blocks)
      funcs
  in
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
  { prog; cfg; slide; global_addr; global_bounds; funcs; fn_index; entries;
    block_base; code_end = !next_code;
    fns = Array.make (Array.length funcs) untouched }

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
            | Prog.Cfun f -> entry_addr image f
            | Prog.Cglob (name, off) -> Hashtbl.find image.global_addr name + off
          in
          Mem.write mem (base + i) v;
          match cell with
          | Prog.Cfun _ when init_cells_into_store ->
            Safestore.set store (base + i)
              { Safestore.value = v;
                meta = Some { lower = v; upper = v + 1; tid = 0;
                              kind = Safestore.Code } }
          | Prog.Cglob (name, off) when init_cells_into_store ->
            let lo, hi = Hashtbl.find image.global_bounds name in
            Safestore.set store (base + i)
              { Safestore.value = v;
                meta = Some { lower = lo + off; upper = hi; tid = 0;
                              kind = Safestore.Data } }
          | Prog.Cint _ | Prog.Cfun _ | Prog.Cglob _ -> ())
        g.Prog.init)
    image.prog.Prog.globals
