(** Bump-with-free-list heap allocator for the regular region.

    Every allocation carries a fresh temporal id, which CPI's metadata uses
    to detect use-after-free of sensitive pointers; freed blocks of equal
    size are reused, which is what makes use-after-free exploitable in the
    unprotected configurations. *)

type block = { addr : int; size : int; mutable tid : int; mutable live : bool }

type t = {
  mem : Mem.t;
  base : int;
  limit : int;
  mutable brk : int;
  mutable next_tid : int;
  blocks : block Mem.Tbl.t;
  free_lists : int list ref Mem.Tbl.t;
  mutable live_words : int;
  mutable peak_words : int;
  dead_tids : unit Mem.Tbl.t;
}

val create : Mem.t -> base:int -> limit:int -> t

(** Allocate [n] words (zeroed). Raises [Trap.Machine_stop] with
    [Out_of_memory] on exhaustion. *)
val malloc : t -> int -> block

(** Free a block. Raises [Trap.Machine_stop] with [Invalid_free] or
    [Double_free] on misuse. *)
val free : t -> int -> unit

(** Is the temporal id dead (its object freed)? *)
val tid_dead : t -> int -> bool
