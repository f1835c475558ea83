(** Program loader.

    Assigns code addresses to every instruction (so corrupted code pointers
    decode like a real instruction pointer), lays out globals, resolves
    initializers, and computes per-function frame layouts for the active
    configuration. The loader is trusted, per the paper's threat model.

    [load] costs work per function, block and global, never per
    instruction. Code addresses are arithmetic: functions follow one
    another from the (slid) code base in declaration order, blocks in
    order within a function, one address per instruction plus one per
    terminator; the image keeps each block's base address, and [decode]
    binary-searches the function entries, then that function's block
    bases. A function's frame layout is built the first time anything
    needs it (its first entry, a diverted jump into it, or [layout]) and
    its compiled code on its first entry; both are cached in its slot, at
    most once per function per image. This relies on three invariants:
    - the image reads its [Prog.t] lazily (the interpreter compiles each
      function straight from it and its knobs), so a program must not be
      mutated after [load] (the passes decide a build's knobs inside
      [Pipeline.build], before loading);
    - every function has at least one block and block ids are positions
      ([Verify] and [Builder] ensure both), so entries and block bases
      strictly increase;
    - slots are filled without a lock: an image is built and run inside
      one pool task, never shared between domains. *)

module Prog = Levee_ir.Prog

type code_point = { cp_fn : string; cp_block : int; cp_ip : int }

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
  fl_has_unsafe : bool;              (** needs a separate unsafe frame *)
}

(** The interpreter's compiled form of one function, cached on the image.
    Extensible so the loader stays free of the interpreter's types: the
    interpreter adds its own constructor and fills a slot's [code] the
    first time the function is entered, so every run of an image shares
    the code and each function is compiled at most once per image. *)
type code = ..
type code += Not_compiled

(** One function's slot: its frame layout and its compiled code. *)
type fn = {
  layout : frame_layout;
  mutable code : code;
}

type image = {
  prog : Prog.t;
  cfg : Config.t;
  slide : int;                       (** ASLR slide actually applied *)
  global_addr : (string, int) Hashtbl.t;
  global_bounds : (string, int * int) Hashtbl.t;
  funcs : Prog.func array;           (** by function index, in code order *)
  fn_index : (string, int) Hashtbl.t;  (** function name -> index *)
  entries : int array;               (** entry address, by index *)
  block_base : int array array;      (** address of (block, 0), by index *)
  code_end : int;                    (** first address past the code *)
  fns : fn array;                    (** by index; see [fn] *)
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

(** Index of the function whose entry is the address, or [-1]. *)
val entry_index : image -> int -> int

val is_function_entry : image -> int -> bool

(** Code address of instruction [ip] (the terminator when [ip] is the
    instruction count) of block [block] of [fname].
    @raise Not_found if there is no such point. *)
val point_addr : image -> string -> int -> int -> int

(** Decode a code address back to its program point. *)
val decode : image -> int -> code_point option

(** Whether the address follows a call: coarse-CFI's return targets. *)
val is_return_site : image -> int -> bool

(** Every slot of [fns] until its function is first used (compare with
    [==]); never mutated. *)
val untouched : fn

(** The slot of the function at an index, laid out on first use; its
    [code] is [Not_compiled] until the function is first entered. *)
val fn : image -> int -> fn

(** Frame layout of a function, built on first use.
    @raise Not_found if unknown. *)
val layout : image -> string -> frame_layout
