(** Paged word-granular memory.

    Pages are mapped lazily, on the first write to them, and read as
    zeros until written, which both matches OS behaviour and lets the
    evaluation measure the memory footprint of each configuration (pages
    touched x page size). A page comes from the current domain's pool of
    zeroed spare pages ([Spare]) when it has one, and is allocated
    otherwise; either way it counts in [footprint_words] from the write
    that maps it. [clear] is the release: it zero-fills the memory's
    pages, hands up to [Spare.cap] of them back to the current domain's
    pool, drops the rest and empties the table. The pool is domain-local
    ([Domain.DLS]), so it needs no lock: parallelism in this project is
    domains only. A page is too large for the minor heap, so without the
    pool every page of every run would be a fresh major-heap allocation
    for the major GC to mark and sweep; recycling never changes what a
    read returns.

    A 64-entry direct-mapped page cache fronts the page table. A page's
    cache slot is a Fibonacci hash of its index, so the pages a program
    works in at once (stack frames, globals, the heap objects it walks,
    the safe stack) rarely evict each other: over the SPEC-like matrix at
    1M instructions a cell, 396 of 56.7 M accesses missed. A hit is a
    multiply, a tag compare and two array loads; a miss probes a
    monomorphic int hashtable, so no access pays for polymorphic hashing
    or compare. Reads of unmapped
    memory never allocate a page and never populate the cache; [clear]
    invalidates it. *)

let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

module Tbl = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash x = x land max_int
end)

let cache_bits = 6
let cache_size = 1 lsl cache_bits

(* Sentinel page index that no address maps to: [addr lsr page_bits] is
   non-negative for every int, so [min_int] never matches. *)
let no_page_idx = min_int
let no_page : int array = [||]

type t = {
  pages : int array Tbl.t;
  mutable pages_allocated : int;
  tags : int array;             (* cache: page index held by each slot *)
  lines : int array array;      (* cache: the page itself *)
}

(* Fibonacci hashing: the top [cache_bits] bits of the 63-bit product of
   the index and 2^63 / phi (0x4F1BBCDCBFA53E0B, written as the negative
   int with the same 63 bits). *)
let[@inline] slot idx = (idx * -0x30E44323405AC1F5) lsr (63 - cache_bits)

module Spare = struct
  type 'a t = 'a array Stack.t Domain.DLS.key

  (* Per pool and domain: a short attack run maps at most 4 memory pages,
     and a SPEC-like cell at 1M instructions at most 6 memory pages and
     16 safe-store pages. *)
  let cap = 16

  let create () : 'a t = Domain.DLS.new_key Stack.create
  let take t = Stack.pop_opt (Domain.DLS.get t)

  let give t ~zero pages =
    let spare = Domain.DLS.get t in
    Tbl.iter
      (fun _ p ->
        if Stack.length spare < cap then begin
          Array.fill p 0 (Array.length p) zero;
          Stack.push p spare
        end)
      pages
end

let spare : int Spare.t = Spare.create ()

let create () =
  { pages = Tbl.create 64; pages_allocated = 0;
    tags = Array.make cache_size no_page_idx;
    lines = Array.make cache_size no_page }

let[@inline never] read_miss t idx addr =
  match Tbl.find_opt t.pages idx with
  | Some p ->
    let s = slot idx in
    Array.unsafe_set t.tags s idx;
    Array.unsafe_set t.lines s p;
    Array.unsafe_get p (addr land page_mask)
  | None -> 0

(** [read t addr] returns the word at [addr]; unmapped memory reads as 0
    without allocating a page. *)
let[@inline] read t addr =
  let idx = addr lsr page_bits in
  let s = slot idx in
  (* [addr land page_mask] < page_words by construction: unchecked. *)
  if Array.unsafe_get t.tags s = idx then
    Array.unsafe_get (Array.unsafe_get t.lines s) (addr land page_mask)
  else read_miss t idx addr

let[@inline never] write_miss t idx addr v =
  let p =
    match Tbl.find_opt t.pages idx with
    | Some p -> p
    | None ->
      let p =
        match Spare.take spare with
        | Some p -> p
        | None -> Array.make page_words 0
      in
      Tbl.replace t.pages idx p;
      t.pages_allocated <- t.pages_allocated + 1;
      p
  in
  let s = slot idx in
  Array.unsafe_set t.tags s idx;
  Array.unsafe_set t.lines s p;
  Array.unsafe_set p (addr land page_mask) v

let[@inline] write t addr v =
  let idx = addr lsr page_bits in
  let s = slot idx in
  if Array.unsafe_get t.tags s = idx then
    Array.unsafe_set (Array.unsafe_get t.lines s) (addr land page_mask) v
  else write_miss t idx addr v

(** Words of memory currently backed by allocated pages. *)
let footprint_words t = t.pages_allocated * page_words

let clear t =
  Spare.give spare ~zero:0 t.pages;
  Tbl.reset t.pages;
  t.pages_allocated <- 0;
  Array.fill t.tags 0 cache_size no_page_idx;
  Array.fill t.lines 0 cache_size no_page
