(** Bump-with-free-list heap allocator for the regular region.

    Each allocation carries a header word (its size) at [addr - 1] and a
    fresh temporal id, which CPI's metadata uses to detect use-after-free
    of sensitive pointers. Freed blocks of equal size are reused, which is
    exactly what makes use-after-free exploitable in the unprotected
    configurations. *)

type block = { addr : int; size : int; mutable tid : int; mutable live : bool }

type t = {
  mem : Mem.t;
  base : int;
  limit : int;
  mutable brk : int;
  mutable next_tid : int;
  blocks : block Mem.Tbl.t;               (* addr -> block *)
  free_lists : int list ref Mem.Tbl.t;     (* size -> addresses *)
  mutable live_words : int;
  mutable peak_words : int;
  dead_tids : unit Mem.Tbl.t;
}

let create mem ~base ~limit =
  { mem; base; limit; brk = base; next_tid = 1; blocks = Mem.Tbl.create 64;
    free_lists = Mem.Tbl.create 16; live_words = 0; peak_words = 0;
    dead_tids = Mem.Tbl.create 64 }

let fresh_tid t =
  let id = t.next_tid in
  t.next_tid <- id + 1;
  id

(** [malloc t n] allocates [n] words; returns the block. Raises
    [Trap.Machine_stop] on exhaustion. *)
let malloc t n =
  let n = max n 1 in
  let reuse =
    match Mem.Tbl.find_opt t.free_lists n with
    | Some ({ contents = addr :: rest } as l) ->
      l := rest;
      Some addr
    | Some { contents = [] } | None -> None
  in
  let addr =
    match reuse with
    | Some addr -> addr
    | None ->
      let addr = t.brk + 1 in                   (* +1 for the header word *)
      t.brk <- addr + n;
      if t.brk >= t.limit then raise (Trap.Machine_stop (Trap.Trapped Trap.Out_of_memory));
      addr
  in
  let tid = fresh_tid t in
  let b = { addr; size = n; tid; live = true } in
  Mem.Tbl.replace t.blocks addr b;
  Mem.write t.mem (addr - 1) n;
  (* Zero the block: freshly mapped pages are zero, but reused ones are
     not — deliberately NOT zeroing reused blocks would model heap data
     leaks; we zero for determinism of benign workloads. *)
  for i = addr to addr + n - 1 do
    Mem.write t.mem i 0
  done;
  t.live_words <- t.live_words + n;
  if t.live_words > t.peak_words then t.peak_words <- t.live_words;
  b

let free t addr =
  match Mem.Tbl.find_opt t.blocks addr with
  | None -> raise (Trap.Machine_stop (Trap.Trapped Trap.Invalid_free))
  | Some b ->
    if not b.live then raise (Trap.Machine_stop (Trap.Trapped Trap.Double_free));
    b.live <- false;
    Mem.Tbl.replace t.dead_tids b.tid ();
    t.live_words <- t.live_words - b.size;
    let l =
      match Mem.Tbl.find_opt t.free_lists b.size with
      | Some l -> l
      | None ->
        let l = ref [] in
        Mem.Tbl.replace t.free_lists b.size l;
        l
    in
    l := addr :: !l

(** Is the temporal id [tid] dead (its object freed)? *)
let tid_dead t tid = tid <> 0 && Mem.Tbl.mem t.dead_tids tid
