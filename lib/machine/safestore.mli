(** The safe pointer store (paper Section 3.2.2, Fig. 2).

    Maps the address of a sensitive pointer, as allocated in the regular
    region, to the pointer's value and its based-on metadata. Three
    organisations are implemented, matching Section 4's simple array,
    two-level lookup table, and hashtable; they differ in lookup cost and
    memory footprint. *)

type kind =
  | Data      (** ordinary sensitive data pointer *)
  | Code      (** code pointer: bounds degenerate to the exact target *)

(** Based-on metadata: the bounds and temporal id of the object a pointer
    is based on. Registers, the interpreter's safe-stack shadow and the
    store's entries all carry this one immutable record, so a load that
    finds an entry hands its metadata to the register as is. *)
type meta = {
  lower : int;
  upper : int;    (** exclusive *)
  tid : int;      (** temporal id of the target object; 0 = static *)
  kind : kind;
}

(** A stored value and its metadata. [meta = None] is invalid metadata:
    the entry is present, and no check accepts it. *)
type entry = { value : int; meta : meta option }

type impl =
  | Simple_array   (** sparse mmap-backed flat table: fastest, most memory *)
  | Two_level      (** directory + leaves, the layout Intel MPX uses *)
  | Hashtable      (** least memory, slowest lookup *)
  | Mpx            (** Section 4's future hardware-assisted variant: the
                       two-level layout with the walk performed by an
                       MPX-style bound-table unit (cheapest lookup) *)

val impl_name : impl -> string

(** A lazily paged table of optional values at integer addresses, one page
    of [2^page_bits] slots at a time, with a one-entry cache of the last
    page touched and the index of the last page found unallocated. The
    array and two-level organisations are instances (4096-word pages,
    512-word leaves), and so is the interpreter's metadata shadow of the
    safe stack. Any int is a valid address, negative ones included.

    The store's own instances recycle their pages: a page they map comes
    from the current domain's pool of emptied pages of that size when it
    has one, and their [reset] returns pages there. A table made by
    {!create} (the shadow's 256-slot pages fit the minor heap) has no
    pool: its [reset] just drops its pages. *)
module Paged : sig
  type 'a t

  val create : page_bits:int -> 'a t
  val get : 'a t -> int -> 'a option

  (** [set t addr v] stores [v] as is: no re-wrapping, so a stored
      [Some x] reads back physically equal. Storing [None] is
      [clear_at]. *)
  val set : 'a t -> int -> 'a option -> unit

  (** Empty one slot; never allocates a page. *)
  val clear_at : 'a t -> int -> unit

  (** Pages allocated so far. Reads and clears never allocate. *)
  val pages : 'a t -> int

  val page_words : 'a t -> int

  (** Slots holding a value. *)
  val count : 'a t -> int

  (** Drop every page (a store instance's go to its pool, emptied). *)
  val reset : 'a t -> unit
end

type t

val create : impl -> t
val impl_of : t -> impl

(** Total get/set/clear operations performed on this store since creation
    (the "safe-store accesses" column of the bench journal). *)
val access_count : t -> int

val set : t -> int -> entry -> unit
val get : t -> int -> entry option
val clear_at : t -> int -> unit

(** Drop every entry and return the store to its freshly-created state,
    resetting the access counter and invalidating the backends' internal
    last-page caches. This is the release: the array and two-level/MPX
    organisations empty their pages and keep up to a fixed number per
    page size in the current domain's pool, where the next store of that
    domain takes them before allocating; the rest are left to the GC.
    A page taken from the pool counts in {!footprint_words} exactly like
    a fresh one. *)
val reset : t -> unit

(** Lookup cost in model cycles; the array organisation is cheapest and the
    hashtable most expensive, per the paper's measurements. *)
val lookup_cost : impl -> int

(** Memory footprint in words given the per-entry metadata width ([4] for
    CPI, [1] for CPS). Array/two-level pay page/leaf granularity, the
    hashtable pays per entry. *)
val footprint_words : ?entry_words:int -> t -> int

(** Number of live entries (used by tests). *)
val entry_count : t -> int
