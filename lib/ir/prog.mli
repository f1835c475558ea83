(** IR functions, globals and whole programs. *)

type block = {
  bid : int;
  mutable instrs : Instr.instr array;
  mutable term : Instr.term;
}

type func = {
  fname : string;
  params : (string * Ty.t) list;    (** bound to registers 0..n-1 on entry *)
  ret_ty : Ty.t;
  mutable blocks : block array;     (** [blocks.(0)] is the entry block *)
  mutable nregs : int;
  mutable cookie : bool;            (** stack-cookie pass: guard this frame *)
  mutable address_taken : bool;     (** legitimate indirect-call target *)
  knobs : Instr.knob array array;
    (** a build's decisions, [knobs.(bid).(idx)] for [blocks.(bid)]'s
        [idx]-th instruction; [[||]] in a function no build made *)
}

(** Initial contents of one word of a global object. *)
type gcell =
  | Cint of int
  | Cfun of string              (** code address of a function *)
  | Cglob of string * int       (** address of a global plus word offset *)

type global = {
  gname : string;
  gty : Ty.t;
  init : gcell array;
}

type t = {
  tenv : Ty.env;
  mutable globals : global list;
  funcs : (string, func) Hashtbl.t;
  mutable func_order : string list;       (** declaration order *)
}

val create : unit -> t

(** @raise Invalid_argument on duplicate function names. *)
val add_func : t -> func -> unit

(** @raise Invalid_argument if the function is unknown. *)
val find_func : t -> string -> func

val has_func : t -> string -> bool
val add_global : t -> global -> unit
val find_global : t -> string -> global option

(** Iterate functions in declaration order. *)
val iter_funcs : t -> (func -> unit) -> unit

val fold_funcs : t -> ('a -> func -> 'a) -> 'a -> 'a

(** Iterate over every instruction of a function. *)
val iter_instrs : func -> (Instr.instr -> unit) -> unit

(** [iteri_instrs fn f] calls [f bid idx i] for every instruction [i],
    at index [idx] of block [bid]. *)
val iteri_instrs : func -> (int -> int -> Instr.instr -> unit) -> unit

(** A build of [src], to instrument under one protection: each function
    is a fresh record (its own [cookie]) with one [Plain] knob per
    instruction, sharing [src]'s blocks and instructions, which no pass
    writes; the type environment and the globals are shared too. *)
val build : t -> t

(** The knob of an instruction; [Plain] in a function without knobs. *)
val knob : func -> int -> int -> Instr.knob

(** A load's or store's routing and check: [(Regular, false)] unless its
    knob is an [Access]. *)
val access : func -> int -> int -> Instr.where * bool

(** [decide fn bid idx k] sets an instruction's knob, the only way a pass
    records a decision.
    @raise Invalid_argument naming the function and the position when
    [fn] has no knobs or [k] does not fit the instruction: [Access] only
    on loads and stores, [Slot] only on allocas, [Cfi] only on indirect
    calls, [Safe_memop] only on [memcpy]/[memset]. *)
val decide : func -> int -> int -> Instr.knob -> unit

(** Compute the set of functions whose address is taken anywhere in the
    program and set their [address_taken] flags; returns the name set. *)
val compute_address_taken : t -> (string, unit) Hashtbl.t
