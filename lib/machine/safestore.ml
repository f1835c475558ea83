(** The safe pointer store (Section 3.2.2, Fig. 2).

    Maps the address of a sensitive pointer, as allocated in the regular
    region, to the pointer's value and its based-on metadata: lower and
    upper bounds of the target object and a temporal id. Three
    organisations are implemented, matching Section 4's "simple array,
    two-level lookup table, and hashtable"; they differ in lookup cost and
    memory overhead, which the ablation benchmarks measure.

    The array and two-level organisations (and MPX, which shares the
    two-level layout) are one paged table, [Paged], at two page sizes;
    the interpreter's metadata shadow of the safe stack is a third
    instance. The hashtable organisation is a monomorphic int hashtable. *)

type kind =
  | Data                  (* ordinary sensitive data pointer *)
  | Code                  (* code pointer: bounds degenerate to exact target *)

(* Based-on metadata, the one record registers, the safe-stack shadow and
   the store share. *)
type meta = {
  lower : int;
  upper : int;            (* exclusive upper bound *)
  tid : int;              (* temporal id of the target object; 0 = static *)
  kind : kind;
}

(* [meta = None] is invalid metadata: the entry is present, and no check
   accepts it. *)
type entry = { value : int; meta : meta option }

type impl = Simple_array | Two_level | Hashtable | Mpx

let impl_name = function
  | Simple_array -> "array"
  | Two_level -> "two-level"
  | Hashtable -> "hashtable"
  | Mpx -> "mpx"

(* One lazily paged table of optional values, parameterised by its page
   size. The array and two-level organisations below are this table with
   4096-word pages and 512-word leaves; the interpreter's safe-stack
   metadata shadow is a third instance. Pages live in a monomorphic int
   hashtable fronted by a one-entry cache of the last page touched, so the
   common access is an integer compare and an array index. Misses on
   [get] and [clear_at] never allocate and never populate the cache with
   a phantom page; they remember the missing page's index instead, so
   further reads and clears there answer without probing the table. Over
   the SPEC-like matrix at 1M instructions a cell, 8.4 M of the shadow's
   15.1 M reads and 2.6 M of its 5.0 M clears are of a page it never
   allocated. Allocating a page forgets that index, and so does [reset].

   The store's two instances also recycle pages the way [Mem] does: a
   new page comes from the current domain's pool of emptied pages of its
   size when it has one, and [reset] empties the table's pages and keeps
   up to [Mem.Spare]'s cap of them there. Both sizes are too large for
   the minor heap. The shadow's 256-slot pages fit it, and it has no
   pool. *)
module Paged = struct
  type 'a t = {
    bits : int;
    pages : 'a option array Mem.Tbl.t;
    spare : 'a option Mem.Spare.t option;
    mutable last_idx : int;
    mutable last_page : 'a option array;
    mutable absent_idx : int;  (* the last page index found unallocated *)
  }

  (* A sentinel page index that no address maps to ([addr lsr bits] is
     non-negative). *)
  let no_page_idx = min_int

  let make spare ~page_bits =
    { bits = page_bits; pages = Mem.Tbl.create 64; spare;
      last_idx = no_page_idx; last_page = [||]; absent_idx = no_page_idx }

  let create ~page_bits = make None ~page_bits

  let page_words t = 1 lsl t.bits
  let pages t = Mem.Tbl.length t.pages

  let[@inline never] get_miss t idx addr =
    match Mem.Tbl.find_opt t.pages idx with
    | Some p ->
      t.last_idx <- idx;
      t.last_page <- p;
      Array.unsafe_get p (addr land ((1 lsl t.bits) - 1))
    | None ->
      t.absent_idx <- idx;
      None

  let[@inline] get t addr =
    let idx = addr lsr t.bits in
    (* [addr land (page_words - 1)] < page_words by construction. *)
    if idx = t.last_idx then
      Array.unsafe_get t.last_page (addr land ((1 lsl t.bits) - 1))
    else if idx = t.absent_idx then None
    else get_miss t idx addr

  (* The page holding [addr], allocated on first use. *)
  let page t idx =
    if idx = t.last_idx then t.last_page
    else begin
      let p =
        match Mem.Tbl.find_opt t.pages idx with
        | Some p -> p
        | None ->
          let p =
            match Option.bind t.spare Mem.Spare.take with
            | Some p -> p
            | None -> Array.make (1 lsl t.bits) None
          in
          Mem.Tbl.replace t.pages idx p;
          t.absent_idx <- no_page_idx;
          p
      in
      t.last_idx <- idx;
      t.last_page <- p;
      p
    end

  let clear_at t addr =
    let idx = addr lsr t.bits in
    let slot = addr land ((1 lsl t.bits) - 1) in
    if idx = t.last_idx then Array.unsafe_set t.last_page slot None
    else if idx <> t.absent_idx then
      match Mem.Tbl.find_opt t.pages idx with
      | Some p ->
        t.last_idx <- idx;
        t.last_page <- p;
        Array.unsafe_set p slot None
      | None -> t.absent_idx <- idx

  (** [set t addr v] stores [v] as is; storing [None] is [clear_at] and
      never allocates a page. *)
  let set t addr v =
    match v with
    | None -> clear_at t addr
    | Some _ ->
      Array.unsafe_set (page t (addr lsr t.bits))
        (addr land ((1 lsl t.bits) - 1)) v

  let count t =
    Mem.Tbl.fold
      (fun _ p acc ->
        Array.fold_left (fun n e -> if e = None then n else n + 1) acc p)
      t.pages 0

  let reset t =
    Option.iter (fun spare -> Mem.Spare.give spare ~zero:None t.pages) t.spare;
    Mem.Tbl.reset t.pages;
    t.last_idx <- no_page_idx;
    t.last_page <- [||];
    t.absent_idx <- no_page_idx
end

type backend =
  | Pages of entry Paged.t   (* array, two-level and mpx organisations *)
  | Hsh of entry Mem.Tbl.t

(* The backend is wrapped with an access counter so the harness can
   journal how hard each run exercised the safe region. *)
type t = {
  impl : impl;
  backend : backend;
  mutable accesses : int;
}

(* The current domain's emptied pages of the array organisation (4096
   slots) and of the two-level and MPX leaves (512 slots). *)
let array_pages : entry option Mem.Spare.t = Mem.Spare.create ()
let leaf_pages : entry option Mem.Spare.t = Mem.Spare.create ()

(* The array organisation is one flat, lazily-paged table indexed by
   address (models the sparse-mmap-backed array; large footprint,
   cheapest lookup). The two-level organisation pays a directory probe
   for smaller leaves: the layout Intel MPX's bound directory/table uses.
   The MPX organisation (Section 4's "future MPX-based implementation")
   shares that layout, but the walk is performed by hardware, so its
   lookup cost is the cheapest of all; we model it as the same data
   structure behind a distinct cost entry. *)
let create impl =
  let backend =
    match impl with
    | Simple_array -> Pages (Paged.make (Some array_pages) ~page_bits:12)
    | Two_level | Mpx -> Pages (Paged.make (Some leaf_pages) ~page_bits:9)
    | Hashtable -> Hsh (Mem.Tbl.create 1024)
  in
  { impl; backend; accesses = 0 }

let impl_of t = t.impl

let access_count t = t.accesses

let set t addr e =
  t.accesses <- t.accesses + 1;
  match t.backend with
  | Pages p -> Paged.set p addr (Some e)
  | Hsh h -> Mem.Tbl.replace h addr e

let get t addr =
  t.accesses <- t.accesses + 1;
  match t.backend with
  | Pages p -> Paged.get p addr
  | Hsh h -> Mem.Tbl.find_opt h addr

let clear_at t addr =
  t.accesses <- t.accesses + 1;
  match t.backend with
  | Pages p -> Paged.clear_at p addr
  | Hsh h -> Mem.Tbl.remove h addr

(** Drop every entry and return the store to its freshly-created state
    (including the access counter and the backend page caches); the
    paged organisations' emptied pages go to the current domain's pool. *)
let reset t =
  t.accesses <- 0;
  match t.backend with
  | Pages p -> Paged.reset p
  | Hsh h -> Mem.Tbl.reset h

(** Lookup cost in model cycles; the differences reproduce the paper's
    finding that the superpage-backed array is fastest, the hashtable
    slowest. *)
let lookup_cost = function
  | Simple_array -> 2
  | Two_level -> 4
  | Hashtable -> 8
  | Mpx -> 1      (* hardware bound-table walk *)

(** Memory footprint of the store in words, given how many metadata words
    each entry carries ([4] for CPI's value+lower+upper+id, [1] for CPS's
    bare value). The array and two-level organisations pay for whole
    allocated pages/leaves; the hashtable pays per entry plus bucket
    overhead. *)
let footprint_words ?(entry_words = 4) t =
  match t.backend with
  | Pages p when t.impl = Simple_array ->
    Paged.pages p * Paged.page_words p * entry_words
  | Pages p -> Paged.pages p * ((Paged.page_words p * entry_words) + 2)
  | Hsh h -> Mem.Tbl.length h * (entry_words + 2)

(** Number of live entries (used by tests). *)
let entry_count t =
  match t.backend with
  | Pages p -> Paged.count p
  | Hsh h -> Mem.Tbl.length h
