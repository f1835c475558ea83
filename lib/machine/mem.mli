(** Paged word-granular memory. Pages are allocated lazily and zero-filled,
    which matches OS behaviour and lets the evaluation measure the memory
    footprint of each configuration. *)

(** Hashtable on int keys with a monomorphic hash and compare (the page
    tables here and in {!Safestore}). *)
module Tbl : Hashtbl.S with type key = int

type t

val create : unit -> t

(** [read t addr]: unmapped memory reads as 0 without allocating. *)
val read : t -> int -> int

val write : t -> int -> int -> unit

(** Words currently backed by allocated pages. *)
val footprint_words : t -> int

val clear : t -> unit
