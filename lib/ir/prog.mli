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

(** Copy of an instruction: the variants with mutable fields are copied,
    the immutable ones returned as they are. *)
val clone_instr : Instr.instr -> Instr.instr

val clone_func : func -> func

(** Copy of a program, for instrumenting the same module under several
    protection configurations: every mutable part (functions, blocks,
    instruction arrays, instructions with mutable fields) is fresh; the
    immutable instructions, the type environment and the globals are
    shared. *)
val clone : t -> t

(** Compute the set of functions whose address is taken anywhere in the
    program and set their [address_taken] flags; returns the name set. *)
val compute_address_taken : t -> (string, unit) Hashtbl.t
