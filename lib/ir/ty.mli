(** IR types.

    The IR is word-addressed: every atomic value (integer, character,
    pointer, code pointer) occupies exactly one 64-bit word, so sizes,
    bounds and field offsets are all measured in words. *)

type t =
  | Void
  | Int                      (** 64-bit integer word *)
  | Char                     (** character; kept distinct from [Int] so
                                 that [Ptr Char] can be classified as a
                                 universal pointer *)
  | Ptr of t                 (** pointer; [Ptr Void] is C's void* *)
  | Fn of t list * t         (** function type: arguments, return *)
  | Struct of string         (** named struct; layout lives in [env] *)
  | Arr of t * int           (** fixed-size array *)

(** Struct layout environment: struct name -> ordered fields, plus the
    structs the programmer marked [sensitive] (Section 3.2.1's
    struct-ucred case), so the mark travels with the program. *)
type env = {
  structs : (string, (string * t) list) Hashtbl.t;
  sensitive : (string, unit) Hashtbl.t;
}

val create_env : unit -> env

(** [define_struct env name fields] registers a struct layout.
    @raise Invalid_argument on duplicate definition. *)
val define_struct : env -> string -> (string * t) list -> unit

(** Record a programmer [sensitive] annotation on a struct. *)
val mark_sensitive : env -> string -> unit

(** Was the struct annotated [sensitive]? *)
val marked_sensitive : env -> string -> bool

(** Ordered fields of a struct. @raise Invalid_argument if unknown. *)
val struct_fields : env -> string -> (string * t) list

(** [size_of env t] is the size of [t] in words. *)
val size_of : env -> t -> int

(** [field_offset env sname fname] is the word offset and type of field
    [fname] within struct [sname]. @raise Invalid_argument if unknown. *)
val field_offset : env -> string -> string -> int * t

val is_pointer : t -> bool

(** A code pointer: pointer to function type. *)
val is_code_pointer : t -> bool

(** Universal pointers may point to values of any type at runtime
    (void and char pointers), per the paper's Section 3.2.1. *)
val is_universal_pointer : t -> bool

val equal : t -> t -> bool
val to_string : t -> string
