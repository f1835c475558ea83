(* Unit tests for the page caches that front the paged memory (a 64-entry
   direct-mapped cache) and the paged tables behind the array and
   two-level safe-store organisations and the interpreter's metadata
   shadow (a one-entry cache of the last page).

   The caches are pure host-side accelerators: they must never change what
   a read returns, never make an unmapped read allocate a page, and must
   be invalidated by [clear] / [reset]. The tests drive exactly the access
   patterns a cache could get wrong: hit-after-miss, interleaving across
   page boundaries, more live pages than the cache has slots (so pages
   that share a slot evict each other), addresses an attacker may choose
   (negative, or 2^31 and above), and reuse of a cleared store. The
   paged table also remembers the last page it found absent, so a page
   first missed and then allocated, and a page missed just before
   [reset], are driven through every instance of it.

   [clear] / [reset] also hand the pages to the current domain's pool of
   spare pages, which the next page mapped in that domain comes from: a
   page filled to the last word before the release must come back
   reading 0 (or [None]) everywhere but the word written after it, in
   the same memory or store and in a second one, and must count in the
   footprint like a fresh page. *)

module M = Levee_machine

(* Mem.page_words is private to mem.ml; 1 lsl 12 mirrors its page size.
   Two addresses this far apart are guaranteed to live on distinct
   pages whatever the (power-of-two) page size below 1 lsl 12. *)
let page_words = 1 lsl 12

(* More pages than the 64-slot memory cache holds: by pigeonhole, many of
   them share a slot, and a round-robin walk over them misses on every
   access once the cache is full. *)
let many_pages = 200

(* Addresses an attacker-controlled pointer may hold. *)
let odd_addrs =
  [ -1; -2; -page_words; -(page_words + 1); min_int; min_int + 1;
    1 lsl 31; (1 lsl 31) + 1; (1 lsl 31) - 1; 1 lsl 40; 1 lsl 61; max_int;
    max_int - page_words ]

(* ---------- Mem ---------- *)

let test_mem_hit_after_miss () =
  let m = M.Mem.create () in
  let a = 0x0100_0000 in
  M.Mem.write m a 42;
  Alcotest.(check int) "read back (cached)" 42 (M.Mem.read m a);
  Alcotest.(check int) "neighbour on same page" 0 (M.Mem.read m (a + 1));
  M.Mem.write m (a + 1) 7;
  Alcotest.(check int) "second write same page" 7 (M.Mem.read m (a + 1));
  Alcotest.(check int) "first value survives" 42 (M.Mem.read m a)

let test_mem_unmapped_reads_free () =
  let m = M.Mem.create () in
  Alcotest.(check int) "unmapped reads as 0" 0 (M.Mem.read m 0x0200_0000);
  Alcotest.(check int) "no page allocated by a read" 0
    (M.Mem.footprint_words m);
  (* A read miss must not populate the cache with a phantom page either:
     the next write to the same page has to allocate for real. *)
  M.Mem.write m 0x0200_0000 1;
  Alcotest.(check int) "write after read-miss allocates one page" page_words
    (M.Mem.footprint_words m);
  Alcotest.(check int) "and the value sticks" 1 (M.Mem.read m 0x0200_0000)

let test_mem_cross_page_interleaving () =
  let m = M.Mem.create () in
  let a = 0x0100_0000 and b = 0x0100_0000 + (4 * page_words) in
  (* Alternate between two pages so every access evicts the other page
     from the one-entry cache; values must never leak across. *)
  for i = 0 to 63 do
    M.Mem.write m (a + i) (1000 + i);
    M.Mem.write m (b + i) (2000 + i)
  done;
  for i = 0 to 63 do
    Alcotest.(check int) "page A value" (1000 + i) (M.Mem.read m (a + i));
    Alcotest.(check int) "page B value" (2000 + i) (M.Mem.read m (b + i))
  done

let test_mem_many_pages () =
  let m = M.Mem.create () in
  let addr k i = 0x0100_0000 + (k * page_words) + (i * 17) in
  for round = 0 to 2 do
    for i = 0 to 7 do
      for k = 0 to many_pages - 1 do
        M.Mem.write m (addr k i) ((round * 1_000_000) + (k * 100) + i)
      done
    done;
    for k = many_pages - 1 downto 0 do
      for i = 0 to 7 do
        Alcotest.(check int) "value on its own page"
          ((round * 1_000_000) + (k * 100) + i)
          (M.Mem.read m (addr k i))
      done
    done
  done;
  Alcotest.(check int) "one page per distinct page written"
    (many_pages * page_words) (M.Mem.footprint_words m)

let test_mem_odd_addresses () =
  let m = M.Mem.create () in
  List.iteri (fun i a -> M.Mem.write m a (i + 1)) odd_addrs;
  List.iteri
    (fun i a -> Alcotest.(check int) (Printf.sprintf "read %d" a) (i + 1)
        (M.Mem.read m a))
    odd_addrs;
  (* Neighbours of the odd addresses stay zero: nothing aliases. *)
  List.iter
    (fun a ->
      if not (List.mem (a + 3) odd_addrs) then
        Alcotest.(check int) (Printf.sprintf "neighbour of %d" a) 0
          (M.Mem.read m (a + 3)))
    odd_addrs

let test_mem_unmapped_many () =
  let m = M.Mem.create () in
  M.Mem.write m 0x0100_0000 5;
  let before = M.Mem.footprint_words m in
  for k = 0 to many_pages - 1 do
    Alcotest.(check int) "unmapped" 0 (M.Mem.read m (0x0300_0000 + (k * page_words)))
  done;
  List.iter (fun a -> ignore (M.Mem.read m a)) odd_addrs;
  Alcotest.(check int) "reads never allocate" before (M.Mem.footprint_words m);
  Alcotest.(check int) "mapped page still reads" 5 (M.Mem.read m 0x0100_0000)

(* Write one word at [a] into memory whose pool holds a page released
   dirty, then require the rest of [a]'s page to read 0 and the page to
   count in the footprint. *)
let check_retaken_page what m a =
  M.Mem.write m a 9;
  Alcotest.(check int) (what ^ ": written word") 9 (M.Mem.read m a);
  let base = a land lnot (page_words - 1) in
  for i = 0 to page_words - 1 do
    if base + i <> a && M.Mem.read m (base + i) <> 0 then
      Alcotest.failf "%s: word %d of the re-taken page reads %d" what i
        (M.Mem.read m (base + i))
  done;
  Alcotest.(check int) (what ^ ": re-taken page counts") page_words
    (M.Mem.footprint_words m)

let fill_page m base =
  for i = 0 to page_words - 1 do M.Mem.write m (base + i) (i + 1) done

let test_mem_clear_invalidates () =
  let m = M.Mem.create () in
  let a = 0x0100_0000 in
  M.Mem.write m a 42;
  Alcotest.(check int) "cached read" 42 (M.Mem.read m a);
  fill_page m a;
  M.Mem.clear m;
  (* A stale cache line here would return 1 from the dropped page. *)
  Alcotest.(check int) "cleared memory reads 0" 0 (M.Mem.read m a);
  Alcotest.(check int) "clear drops the footprint" 0 (M.Mem.footprint_words m);
  check_retaken_page "same memory" m (a + 5);
  fill_page m a;
  M.Mem.clear m;
  (* A second memory of this domain takes the page [m] released, whatever
     page index it maps it at. *)
  check_retaken_page "second memory" (M.Mem.create ()) (0x0700_0000 + 77)

(* ---------- Safestore ---------- *)

let impls =
  [ M.Safestore.Simple_array; M.Safestore.Two_level; M.Safestore.Hashtable;
    M.Safestore.Mpx ]

let entry v =
  { M.Safestore.value = v;
    meta = Some { lower = v; upper = v + 8; tid = 0; kind = M.Safestore.Data } }

let check_entry what expected actual =
  match (expected, actual) with
  | None, None -> ()
  | Some v, Some e -> Alcotest.(check int) what v e.M.Safestore.value
  | Some _, None -> Alcotest.failf "%s: expected an entry, got None" what
  | None, Some e ->
    Alcotest.failf "%s: expected None, got value %d" what e.M.Safestore.value

let each_impl f =
  List.iter (fun impl -> f (M.Safestore.impl_name impl) impl) impls

let test_store_set_get_clear () =
  each_impl (fun name impl ->
      let s = M.Safestore.create impl in
      let a = 0x0100_0000 in
      M.Safestore.set s a (entry 11);
      check_entry (name ^ ": get after set") (Some 11) (M.Safestore.get s a);
      check_entry (name ^ ": cached re-get") (Some 11) (M.Safestore.get s a);
      M.Safestore.clear_at s a;
      check_entry (name ^ ": get after clear_at") None (M.Safestore.get s a);
      check_entry (name ^ ": empty neighbour") None
        (M.Safestore.get s (a + 1)))

let test_store_cross_page_interleaving () =
  each_impl (fun name impl ->
      let s = M.Safestore.create impl in
      let a = 0x0100_0000 and b = 0x0100_0000 + (4 * page_words) in
      for i = 0 to 31 do
        M.Safestore.set s (a + i) (entry (1000 + i));
        M.Safestore.set s (b + i) (entry (2000 + i))
      done;
      for i = 0 to 31 do
        check_entry (name ^ ": page A entry") (Some (1000 + i))
          (M.Safestore.get s (a + i));
        check_entry (name ^ ": page B entry") (Some (2000 + i))
          (M.Safestore.get s (b + i))
      done)

(* Set one slot at [a] in a store whose pool holds pages released full,
   then require every other slot of the [page_words]-slot window around
   [a] (one array page, eight two-level leaves) to read [None] and the
   footprint to be [one_entry], a fresh store's after one [set]. *)
let check_retaken_pages what s a ~one_entry =
  M.Safestore.set s a (entry 21);
  check_entry (what ^ ": written slot") (Some 21) (M.Safestore.get s a);
  let base = a land lnot (page_words - 1) in
  for i = 0 to page_words - 1 do
    if base + i <> a then
      check_entry (Printf.sprintf "%s: slot %d" what i) None
        (M.Safestore.get s (base + i))
  done;
  Alcotest.(check int) (what ^ ": re-taken page counts") one_entry
    (M.Safestore.footprint_words s)

let fill_store s base =
  for i = 0 to page_words - 1 do M.Safestore.set s (base + i) (entry (i + 1)) done

let test_store_reset_invalidates () =
  each_impl (fun name impl ->
      let s = M.Safestore.create impl in
      let a = 0x0100_0000 in
      M.Safestore.set s a (entry 11);
      check_entry (name ^ ": populated") (Some 11) (M.Safestore.get s a);
      let one_entry = M.Safestore.footprint_words s in
      fill_store s a;
      M.Safestore.reset s;
      Alcotest.(check int)
        (name ^ ": reset zeroes the access counter")
        0 (M.Safestore.access_count s);
      check_entry (name ^ ": reset drops entries") None (M.Safestore.get s a);
      Alcotest.(check int)
        (name ^ ": reset drops live entries")
        0 (M.Safestore.entry_count s);
      (* A stale backend page cache after reset would resurrect the old
         entry or write through to a dropped leaf. *)
      check_retaken_pages (name ^ ": same store") s (a + 5) ~one_entry;
      fill_store s a;
      M.Safestore.reset s;
      check_retaken_pages (name ^ ": second store") (M.Safestore.create impl)
        (0x0700_0000 + 77) ~one_entry)

let test_store_many_pages_and_odd_addresses () =
  each_impl (fun name impl ->
      let s = M.Safestore.create impl in
      let addr k = 0x0100_0000 + (k * page_words) + k in
      for k = 0 to many_pages - 1 do
        M.Safestore.set s (addr k) (entry k)
      done;
      List.iteri (fun i a -> M.Safestore.set s a (entry (-1 - i))) odd_addrs;
      for k = many_pages - 1 downto 0 do
        check_entry (name ^ ": page entry") (Some k) (M.Safestore.get s (addr k))
      done;
      List.iteri
        (fun i a -> check_entry (name ^ ": odd address") (Some (-1 - i))
            (M.Safestore.get s a))
        odd_addrs;
      Alcotest.(check int) (name ^ ": entry count")
        (many_pages + List.length odd_addrs) (M.Safestore.entry_count s);
      List.iter (M.Safestore.clear_at s) odd_addrs;
      Alcotest.(check int) (name ^ ": cleared")
        many_pages (M.Safestore.entry_count s))

let test_store_get_miss_allocates_nothing () =
  each_impl (fun name impl ->
      let s = M.Safestore.create impl in
      let base = M.Safestore.footprint_words s in
      check_entry (name ^ ": miss on empty store") None
        (M.Safestore.get s 0x0300_0000);
      Alcotest.(check int)
        (name ^ ": read miss does not grow the footprint")
        base
        (M.Safestore.footprint_words s))

(* ---------- Paged table (the metadata shadow) ---------- *)

let test_paged_none_reads_none () =
  let p = M.Safestore.Paged.create ~page_bits:8 in
  let a = 0x4FFE_0000 in
  M.Safestore.Paged.set p a None;
  Alcotest.(check int) "storing None allocates nothing" 0
    (M.Safestore.Paged.pages p);
  let v = Some 42 in
  M.Safestore.Paged.set p a v;
  Alcotest.(check bool) "value stored as is" true
    (M.Safestore.Paged.get p a == v);
  M.Safestore.Paged.set p a None;
  Alcotest.(check (option int)) "None overwrites" None (M.Safestore.Paged.get p a);
  Alcotest.(check int) "slot emptied" 0 (M.Safestore.Paged.count p);
  (* Away from the cached page, too. *)
  M.Safestore.Paged.set p (a + 1000) (Some 1);
  M.Safestore.Paged.set p a (Some 2);
  M.Safestore.Paged.set p (a + 1000) None;
  Alcotest.(check (option int)) "None on an uncached page" None
    (M.Safestore.Paged.get p (a + 1000));
  Alcotest.(check (option int)) "neighbour page intact" (Some 2)
    (M.Safestore.Paged.get p a);
  Alcotest.(check (option int)) "unmapped reads None" None
    (M.Safestore.Paged.get p (-a));
  Alcotest.(check int) "reads and clears allocate nothing" 2
    (M.Safestore.Paged.pages p)

(* ---------- Absent pages ---------- *)

(* Every instance of the paged table behind one interface: the 256-slot
   metadata shadow, and the safe stores whose backend is one (4096-slot
   array pages, 512-slot two-level and MPX leaves). [size] is what the
   table has allocated: pages for the shadow, the footprint for a store.
   Addresses [page_words] apart are on distinct pages of every instance. *)
type paged = {
  get : int -> int option;
  set : int -> int -> unit;
  clear_at : int -> unit;
  reset : unit -> unit;
  size : unit -> int;
  count : unit -> int;
}

let paged_instances =
  let module P = M.Safestore.Paged in
  let module S = M.Safestore in
  let shadow () =
    let p = P.create ~page_bits:8 in
    { get = P.get p; set = (fun a v -> P.set p a (Some v));
      clear_at = P.clear_at p; reset = (fun () -> P.reset p);
      size = (fun () -> P.pages p); count = (fun () -> P.count p) }
  in
  let store impl () =
    let s = S.create impl in
    { get = (fun a -> Option.map (fun e -> e.S.value) (S.get s a));
      set = (fun a v -> S.set s a (entry v)); clear_at = S.clear_at s;
      reset = (fun () -> S.reset s);
      size = (fun () -> S.footprint_words s);
      count = (fun () -> S.entry_count s) }
  in
  ("shadow", shadow)
  :: List.map (fun impl -> (S.impl_name impl, store impl))
       [ S.Simple_array; S.Two_level; S.Mpx ]

let each_paged f = List.iter (fun (name, mk) -> f name (mk ())) paged_instances

let present = 0x0100_0000
let absent = present + (8 * page_words)
let absent' = present + (9 * page_words)

let check_get what expected actual =
  Alcotest.(check (option int)) what expected actual

(* Repeated reads and clears of never-allocated pages, alone, alternating
   between two of them, and interleaved with a live page so the last-page
   cache moves away and back. *)
let test_absent_page_untouched () =
  each_paged (fun name t ->
      t.set present 1;
      let size = t.size () in
      for _ = 1 to 3 do
        check_get (name ^ ": absent page") None (t.get absent);
        t.clear_at absent;
        check_get (name ^ ": absent page after clear_at") None
          (t.get (absent + 1));
        check_get (name ^ ": second absent page") None (t.get absent');
        t.clear_at absent';
        check_get (name ^ ": live page") (Some 1) (t.get present);
        t.clear_at absent;
        check_get (name ^ ": live page after clear_at elsewhere") (Some 1)
          (t.get present)
      done;
      Alcotest.(check int) (name ^ ": nothing allocated") size (t.size ());
      Alcotest.(check int) (name ^ ": entries") 1 (t.count ()))

(* A page first seen absent, then allocated by [set], must be found again
   once the last-page cache has moved to another page, and cleared by a
   later [clear_at]. *)
let test_absent_then_set () =
  each_paged (fun name t ->
      t.set present 1;
      let one_page = t.size () in
      check_get (name ^ ": absent page") None (t.get absent);
      t.clear_at absent;
      t.set absent 2;
      check_get (name ^ ": live page") (Some 1) (t.get present);
      check_get (name ^ ": set after the miss") (Some 2) (t.get absent);
      check_get (name ^ ": live page again") (Some 1) (t.get present);
      t.clear_at absent;
      check_get (name ^ ": live page after clear_at") (Some 1) (t.get present);
      check_get (name ^ ": cleared") None (t.get absent);
      Alcotest.(check int) (name ^ ": two pages") (2 * one_page) (t.size ());
      (* The same through [clear_at] as the first access to the page. *)
      t.clear_at absent';
      t.set absent' 3;
      check_get (name ^ ": live page") (Some 1) (t.get present);
      check_get (name ^ ": set after a clear_at miss") (Some 3)
        (t.get absent'))

(* [reset] with a page seen absent: the pages that existed read [None],
   and every page, absent before or not, can be set and read back. *)
let test_absent_across_reset () =
  each_paged (fun name t ->
      t.set present 1;
      t.set absent' 2;
      let two_pages = t.size () in
      check_get (name ^ ": absent page") None (t.get absent);
      t.reset ();
      check_get (name ^ ": existed, after reset") None (t.get present);
      check_get (name ^ ": existed, after reset") None (t.get absent');
      check_get (name ^ ": absent, after reset") None (t.get absent);
      t.clear_at present;
      Alcotest.(check int) (name ^ ": reset table is empty") 0 (t.size ());
      t.set absent 3;
      t.set present 4;
      check_get (name ^ ": set again") (Some 4) (t.get present);
      check_get (name ^ ": absent before reset, set after") (Some 3)
        (t.get absent);
      check_get (name ^ ": set again") (Some 4) (t.get present);
      check_get (name ^ ": still absent") None (t.get absent');
      t.set absent' 5;
      check_get (name ^ ": set again") (Some 4) (t.get present);
      check_get (name ^ ": absent after reset, then set") (Some 5)
        (t.get absent');
      Alcotest.(check int) (name ^ ": three pages")
        (3 * two_pages / 2) (t.size ()))

let () =
  Alcotest.run "pagecache"
    [ ( "mem",
        [ Alcotest.test_case "hit after miss" `Quick test_mem_hit_after_miss;
          Alcotest.test_case "unmapped reads allocate nothing" `Quick
            test_mem_unmapped_reads_free;
          Alcotest.test_case "cross-page interleaving" `Quick
            test_mem_cross_page_interleaving;
          Alcotest.test_case "more pages than cache slots" `Quick
            test_mem_many_pages;
          Alcotest.test_case "negative and high addresses" `Quick
            test_mem_odd_addresses;
          Alcotest.test_case "unmapped reads never allocate" `Quick
            test_mem_unmapped_many;
          Alcotest.test_case "clear invalidates the cache" `Quick
            test_mem_clear_invalidates ] );
      ( "safestore",
        [ Alcotest.test_case "set/get/clear_at" `Quick
            test_store_set_get_clear;
          Alcotest.test_case "cross-page interleaving" `Quick
            test_store_cross_page_interleaving;
          Alcotest.test_case "reset invalidates the cache" `Quick
            test_store_reset_invalidates;
          Alcotest.test_case "many pages, odd addresses" `Quick
            test_store_many_pages_and_odd_addresses;
          Alcotest.test_case "get miss allocates nothing" `Quick
            test_store_get_miss_allocates_nothing ] );
      ( "paged",
        [ Alcotest.test_case "None stored reads back None" `Quick
            test_paged_none_reads_none ] );
      ( "absent pages",
        [ Alcotest.test_case "reads and clears change nothing" `Quick
            test_absent_page_untouched;
          Alcotest.test_case "set after a miss reads back" `Quick
            test_absent_then_set;
          Alcotest.test_case "reset" `Quick test_absent_across_reset ] ) ]
