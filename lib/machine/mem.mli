(** Paged word-granular memory. Pages are mapped on the first write to
    them and read as zeros until written, which matches OS behaviour and
    lets the evaluation measure the memory footprint of each
    configuration. A mapped page comes from the current domain's pool of
    zeroed spare pages when it has one; [clear] returns pages to that
    pool. *)

(** Hashtable on int keys with a monomorphic hash and compare (the page
    tables here and in {!Safestore}, and {!Heap}'s tables). *)
module Tbl : Hashtbl.S with type key = int

(** A per-domain pool of spare pages (this memory's, and the safe store's
    at each of its page sizes). The pool is domain-local, so it needs no
    lock. *)
module Spare : sig
  type 'a t

  val create : unit -> 'a t

  (** A page [give] kept in the current domain, if any. *)
  val take : 'a t -> 'a array option

  (** [give t ~zero pages] fills each page of [pages] with [zero] and
      keeps it in the current domain's pool while that holds fewer than a
      fixed number (16); the rest are left to the GC. The caller then
      empties [pages]. *)
  val give : 'a t -> zero:'a -> 'a array Tbl.t -> unit
end

type t

val create : unit -> t

(** [read t addr]: unmapped memory reads as 0 without allocating. *)
val read : t -> int -> int

val write : t -> int -> int -> unit

(** Words currently backed by mapped pages: a page taken from the pool
    counts exactly like a freshly allocated one. *)
val footprint_words : t -> int

(** Unmap every page, leaving [t] as {!create} returns it. This is the
    release: the pages are zero-filled and kept, up to a fixed number, in
    the current domain's pool for the next page any memory of that domain
    maps; the rest are left to the GC. *)
val clear : t -> unit
