(** The repo's one JSON printer and parser.

    The toolchain has no JSON library. Every schema in the repo
    ([levee-bench-journal/*], [levee-analyze/*], [levee-faults/*],
    [levee-serve/*], [levee-crossval/*], [levee-history/*]) builds a
    {!json} value and prints it here, so every producer emits — and every
    consumer accepts — the same bytes for the same data. *)

type json =
  | Jstr of string
  | Jint of int
  | Jfloat of float  (** printed with {!float_str} *)
  | Jbool of bool
  | Jnull
  | Jlist of json list
  | Jobj of (string * json) list  (** members in printing order *)

(** The one float dialect every schema uses: fixed-point with one
    decimal ([197.4]), locale-independent. Negative zero normalizes to
    ["0.0"]; non-finite values (unrepresentable in JSON, never produced
    by a real schema) also collapse to ["0.0"]. *)
val float_str : float -> string

(** {2 Printing} *)

(** A document, ending in a newline. The layout rule:
    - the root object prints one member per line, its braces on lines of
      their own;
    - an array that is an object member's value, at any depth, prints
      one element per line, its brackets on lines of their own (an empty
      one prints as two brackets around an empty line);
    - everything else prints inline: nested arrays (an array element
      that is itself an array), every object below the root, and
      scalars.

    Strings escape quote, backslash, newline and tab with a backslash
    and every other control character as a [\u00XX] escape; floats use
    {!float_str}. *)
val to_document : json -> string

(** The whole value on one line, no trailing newline: the run-store's
    record layout. *)
val to_line : json -> string

(** {2 Parsing} *)

(** Raised by {!parse} and the accessors below, with a message that
    pinpoints the offset or the missing/ill-typed field. *)
exception Bad of string

(** Parse a complete JSON document (objects, arrays, strings, ints,
    floats, bools, null). Object member order is preserved.
    @raise Bad on malformed input, including trailing garbage. *)
val parse : string -> json

(** Project a field out of an object. @raise Bad if absent. *)
val field : string -> json -> json

val as_str : json -> string
val as_int : json -> int
val as_list : json -> json list
