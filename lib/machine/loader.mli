(** Program loader.

    Assigns code addresses to every instruction (so corrupted code pointers
    decode like a real instruction pointer), lays out globals, resolves
    initializers, and computes per-function frame layouts for the active
    configuration. The loader is trusted, per the paper's threat model. *)

module Prog = Levee_ir.Prog

type code_point = { cp_fn : string; cp_block : int; cp_ip : int }

(** Metadata type carried by the prepared program's resolved operands. *)
type pmeta = Meta.t option

(** Placement of one alloca slot within its frame. *)
type slot = {
  sl_on_safe : bool;      (** safe stack vs regular (unsafe) stack *)
  sl_offset : int;        (** addr = frame_base - sl_offset *)
  sl_size : int;
}

type frame_layout = {
  fl_slots : (int, slot) Hashtbl.t;  (** alloca register -> placement *)
  fl_regular_size : int;
  fl_safe_size : int;
  fl_ret_on_safe : bool;
  fl_ret_offset : int;
  fl_cookie_offset : int option;     (** always on the regular stack *)
  fl_hot_words : int;                (** scalar locals (cache-hot area) *)
  fl_array_words : int;
  fl_has_unsafe : bool;              (** needs a separate unsafe frame *)
}

(** The interpreter's compiled form of one function, cached on the image.
    Extensible so the loader stays free of the interpreter's types: the
    interpreter adds its own constructor and fills a slot the first time
    the function is entered, so every run of an image shares the code
    and each function is compiled at most once per image. The slots are
    filled without a lock: an image is built and run inside one pool
    task, never shared between domains. *)
type code = ..
type code += Not_compiled

type image = {
  prog : Prog.t;
  cfg : Config.t;
  slide : int;                       (** ASLR slide actually applied *)
  func_entry : (string, int) Hashtbl.t;
  addr_of_point : (string * int * int, int) Hashtbl.t;
  point_of_addr : (int, code_point) Hashtbl.t;
  return_sites : (int, unit) Hashtbl.t;   (** coarse-CFI return targets *)
  func_entries : (int, string) Hashtbl.t;
  global_addr : (string, int) Hashtbl.t;
  global_bounds : (string, int * int) Hashtbl.t;
  layouts : (string, frame_layout) Hashtbl.t;
  (* Decode-once layer (see [Levee_ir.Prepared]): every function resolved
     at load time so the interpreter's hot loop never probes the
     hashtables above. *)
  p_funcs : pmeta Levee_ir.Prepared.func array;
  p_findex : (string, int) Hashtbl.t;
  entry_findex : (int, int) Hashtbl.t;
  p_layouts : frame_layout array;
  p_code : code array;   (** per function index; [Not_compiled] at load *)
}

(** Frame layout of one function under a configuration. *)
val layout_of_func : Levee_ir.Ty.env -> Config.t -> Prog.func -> frame_layout

(** Build the image for a program under a configuration. *)
val load : Prog.t -> Config.t -> image

(** Write global initializers into memory; pointer-valued cells also get
    store entries when the configuration keeps metadata (CPI/CPS loaders
    register linker-emitted code pointers, Section 4). *)
val init_globals : image -> Mem.t -> Safestore.t -> unit

(** Code address of a function's entry. @raise Not_found if unknown. *)
val entry_addr : image -> string -> int

(** Prepared (decode-once) form of a function.
    @raise Not_found if unknown. *)
val prepared : image -> string -> pmeta Levee_ir.Prepared.func

(** Code address of instruction [ip] of block [block] of [fname]. *)
val point_addr : image -> string -> int -> int -> int

(** Decode a code address back to its program point. *)
val decode : image -> int -> code_point option

val is_function_entry : image -> int -> bool
