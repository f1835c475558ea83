(* Machine substrate tests: paged memory, the three safe-pointer-store
   organisations (with QCheck equivalence properties), the heap allocator
   with temporal ids, the address-space layout, and the loader's code
   addresses, first-use layout and compilation, and frame layouts. *)

module M = Levee_machine
module SS = M.Safestore
module P = Levee_core.Pipeline
module Prog = Levee_ir.Prog

let t name f = Alcotest.test_case name `Quick f

(* ---------- paged memory ---------- *)

let test_mem_rw () =
  let m = M.Mem.create () in
  Alcotest.(check int) "unmapped reads zero" 0 (M.Mem.read m 0x12345);
  M.Mem.write m 0x12345 99;
  Alcotest.(check int) "read back" 99 (M.Mem.read m 0x12345);
  M.Mem.write m 0x12346 1;
  Alcotest.(check int) "neighbour" 1 (M.Mem.read m 0x12346);
  Alcotest.(check int) "far away still zero" 0 (M.Mem.read m 0x9999999)

let test_mem_footprint () =
  let m = M.Mem.create () in
  Alcotest.(check int) "empty" 0 (M.Mem.footprint_words m);
  M.Mem.write m 0 1;
  M.Mem.write m 1 1;
  let one_page = M.Mem.footprint_words m in
  Alcotest.(check bool) "one page" true (one_page > 0);
  M.Mem.write m 10_000_000 1;
  Alcotest.(check int) "two pages" (2 * one_page) (M.Mem.footprint_words m)

(* ---------- safe pointer store ---------- *)

let entry v =
  { SS.value = v; meta = Some { lower = v; upper = v + 4; tid = 7; kind = SS.Data } }

let test_store_basic impl () =
  let s = SS.create impl in
  Alcotest.(check bool) "miss" true (SS.get s 42 = None);
  SS.set s 42 (entry 1000);
  (match SS.get s 42 with
   | Some e ->
     Alcotest.(check int) "value" 1000 e.SS.value;
     Alcotest.(check (option int)) "tid" (Some 7)
       (Option.map (fun m -> m.SS.tid) e.SS.meta)
   | None -> Alcotest.fail "entry lost");
  SS.clear_at s 42;
  Alcotest.(check bool) "cleared" true (SS.get s 42 = None);
  Alcotest.(check int) "count" 0 (SS.entry_count s)

let test_store_footprints () =
  (* the array organisation must cost much more memory per sparse entry
     than the hashtable — the paper's 105% vs 13.9% memory overheads *)
  let addresses = List.init 64 (fun i -> 0x100000 + (i * 5000)) in
  let fill impl =
    let s = SS.create impl in
    List.iter (fun a -> SS.set s a (entry a)) addresses;
    SS.footprint_words s
  in
  let arr = fill SS.Simple_array in
  let two = fill SS.Two_level in
  let hsh = fill SS.Hashtable in
  Alcotest.(check bool) "array > two-level" true (arr > two);
  Alcotest.(check bool) "two-level > hashtable" true (two > hsh);
  Alcotest.(check bool) "array lookup cheapest" true
    (SS.lookup_cost SS.Simple_array < SS.lookup_cost SS.Hashtable)

(* QCheck: all three organisations implement the same map semantics. *)
let store_ops_equivalent =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (4, map2 (fun a v -> `Set (a, v)) (int_range 1 2000) (int_range 0 1000));
          (2, map (fun a -> `Get a) (int_range 1 2000));
          (1, map (fun a -> `Clear a) (int_range 1 2000)) ])
  in
  let ops_arb = QCheck.make QCheck.Gen.(list_size (int_range 1 200) op_gen) in
  QCheck.Test.make ~name:"safestore organisations agree" ~count:200 ops_arb
    (fun ops ->
      let a = SS.create SS.Simple_array in
      let b = SS.create SS.Two_level in
      let c = SS.create SS.Hashtable in
      List.for_all
        (fun op ->
          match op with
          | `Set (addr, v) ->
            SS.set a addr (entry v);
            SS.set b addr (entry v);
            SS.set c addr (entry v);
            true
          | `Clear addr ->
            SS.clear_at a addr;
            SS.clear_at b addr;
            SS.clear_at c addr;
            true
          | `Get addr ->
            let ra = SS.get a addr and rb = SS.get b addr and rc = SS.get c addr in
            ra = rb && rb = rc)
        ops)

(* ---------- heap ---------- *)

let test_heap_alloc_free () =
  let mem = M.Mem.create () in
  let h = M.Heap.create mem ~base:1000 ~limit:100_000 in
  let b1 = M.Heap.malloc h 10 in
  let b2 = M.Heap.malloc h 10 in
  Alcotest.(check bool) "disjoint" true
    (b2.M.Heap.addr >= b1.M.Heap.addr + 10);
  M.Heap.free h b1.M.Heap.addr;
  let b3 = M.Heap.malloc h 10 in
  Alcotest.(check int) "reuse freed block" b1.M.Heap.addr b3.M.Heap.addr;
  Alcotest.(check bool) "fresh temporal id" true (b3.M.Heap.tid <> b1.M.Heap.tid);
  Alcotest.(check bool) "old tid dead" true (M.Heap.tid_dead h b1.M.Heap.tid);
  Alcotest.(check bool) "new tid live" false (M.Heap.tid_dead h b3.M.Heap.tid)

let test_heap_errors () =
  let mem = M.Mem.create () in
  let h = M.Heap.create mem ~base:1000 ~limit:100_000 in
  let b = M.Heap.malloc h 4 in
  M.Heap.free h b.M.Heap.addr;
  (try
     M.Heap.free h b.M.Heap.addr;
     Alcotest.fail "double free accepted"
   with M.Trap.Machine_stop (M.Trap.Trapped M.Trap.Double_free) -> ());
  (try
     M.Heap.free h 55;
     Alcotest.fail "invalid free accepted"
   with M.Trap.Machine_stop (M.Trap.Trapped M.Trap.Invalid_free) -> ());
  try
    let _ = M.Heap.malloc h 1_000_000 in
    Alcotest.fail "oom not detected"
  with M.Trap.Machine_stop (M.Trap.Trapped M.Trap.Out_of_memory) -> ()

let test_heap_zeroing () =
  let mem = M.Mem.create () in
  let h = M.Heap.create mem ~base:1000 ~limit:100_000 in
  let b = M.Heap.malloc h 4 in
  M.Mem.write mem b.M.Heap.addr 77;
  M.Heap.free h b.M.Heap.addr;
  let b2 = M.Heap.malloc h 4 in
  Alcotest.(check int) "reused block zeroed" 0 (M.Mem.read mem b2.M.Heap.addr)

(* ---------- layout ---------- *)

let test_layout_regions () =
  let open M.Layout in
  Alcotest.(check bool) "null guard" true (region_of 5 = Null);
  Alcotest.(check bool) "globals" true (region_of globals_base = Globals);
  Alcotest.(check bool) "heap" true (region_of (heap_base + 100) = Heap);
  Alcotest.(check bool) "stack" true (region_of (stack_top - 10) = Stack);
  Alcotest.(check bool) "safe" true (region_of (safe_stack_top - 5) = Safe);
  Alcotest.(check bool) "code" true (region_of (code_base + 3) = Code);
  Alcotest.(check bool) "in_safe_region" true (in_safe_region safe_base);
  Alcotest.(check bool) "slide respected" true
    (region_of ~slide:0x1000 (code_base + 0x1000) = Code)

(* ---------- loader ---------- *)

let test_loader_code_addressing () =
  let prog =
    Helpers.compile
      {|int f(int x) { return x + 1; }
        int g() { return f(1) + f(2); }
        int main() { return g(); }|}
  in
  let image = M.Loader.load prog M.Config.vanilla in
  let entry_f = M.Loader.entry_addr image "f" in
  let entry_g = M.Loader.entry_addr image "g" in
  Alcotest.(check bool) "distinct entries" true (entry_f <> entry_g);
  Alcotest.(check bool) "entries decode" true
    (M.Loader.is_function_entry image entry_f);
  (match M.Loader.decode image entry_f with
   | Some cp ->
     Alcotest.(check string) "decodes to f" "f" cp.M.Loader.cp_fn;
     Alcotest.(check int) "entry block" 0 cp.M.Loader.cp_block;
     Alcotest.(check int) "entry ip" 0 cp.M.Loader.cp_ip
   | None -> Alcotest.fail "entry does not decode");
  (* the address right after each call is a return site; code is one
     contiguous range, so count over it until an address stops decoding *)
  let rec count_sites a n =
    if M.Loader.decode image a = None then n
    else count_sites (a + 1) (if M.Loader.is_return_site image a then n + 1 else n)
  in
  Alcotest.(check int) "three return sites (two in g, one in main)" 3
    (count_sites (M.Layout.code_base + image.M.Loader.slide) 0);
  (* data addresses do not decode *)
  Alcotest.(check bool) "data does not decode" true
    (M.Loader.decode image M.Layout.globals_base = None)

(* The address map as a per-instruction table, built by the loop the
   loader once ran at load time: consecutive addresses from the code base,
   one per instruction plus one per terminator, function by function and
   block by block, with the address after a call marked a return site.
   [decode], [is_function_entry], [is_return_site], [point_addr] and
   [entry_addr] must agree with it everywhere, including just outside the
   code range. *)
let check_address_map what (image : M.Loader.image) =
  let lo = M.Layout.code_base + image.M.Loader.slide in
  let point_of_addr = Hashtbl.create 256 and addr_of_point = Hashtbl.create 256 in
  let entries = Hashtbl.create 16 and return_sites = Hashtbl.create 64 in
  let next = ref lo in
  Prog.iter_funcs image.M.Loader.prog (fun fn ->
      Hashtbl.replace entries !next fn.Prog.fname;
      Array.iter
        (fun (b : Prog.block) ->
          for ip = 0 to Array.length b.Prog.instrs do
            Hashtbl.replace addr_of_point (fn.Prog.fname, b.Prog.bid, ip) !next;
            Hashtbl.replace point_of_addr !next
              { M.Loader.cp_fn = fn.Prog.fname; cp_block = b.Prog.bid; cp_ip = ip };
            if ip > 0 then
              (match b.Prog.instrs.(ip - 1) with
               | Levee_ir.Instr.Call _ -> Hashtbl.replace return_sites !next ()
               | _ -> ());
            incr next
          done)
        fn.Prog.blocks);
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  for a = lo - 3 to !next + 3 do
    if M.Loader.decode image a <> Hashtbl.find_opt point_of_addr a then
      fail "decode differs at %#x" a;
    if M.Loader.is_function_entry image a <> Hashtbl.mem entries a then
      fail "is_function_entry differs at %#x" a;
    if M.Loader.is_return_site image a <> Hashtbl.mem return_sites a then
      fail "is_return_site differs at %#x" a
  done;
  Hashtbl.iter
    (fun (f, b, ip) a ->
      if M.Loader.point_addr image f b ip <> a then
        fail "point_addr %s b%d.%d differs" f b ip)
    addr_of_point;
  Hashtbl.iter
    (fun a f ->
      if M.Loader.entry_addr image f <> a then fail "entry_addr %s differs" f)
    entries;
  let raises f b ip =
    match M.Loader.point_addr image f b ip with
    | _ -> fail "point_addr %s b%d.%d should raise Not_found" f b ip
    | exception Not_found -> ()
  in
  Prog.iter_funcs image.M.Loader.prog (fun fn ->
      let f = fn.Prog.fname in
      Array.iter
        (fun (b : Prog.block) ->
          raises f b.Prog.bid (Array.length b.Prog.instrs + 1))
        fn.Prog.blocks;
      raises f (Array.length fn.Prog.blocks) 0;
      raises f (-1) 0);
  raises "no such function" 0 0

let oracle_examples () =
  Sys.readdir "../examples/minic"
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (fun f ->
         ( f,
           Levee_minic.Lower.compile ~name:f
             (In_channel.with_open_bin ("../examples/minic/" ^ f)
                In_channel.input_all) ))

let test_loader_address_oracle () =
  let module W = Levee_workloads in
  let bundled =
    W.Spec.all @ W.Phoronix.all @ W.Webstack.all @ W.Base_system.all
  in
  let programs =
    List.map (fun w -> (w.W.Workload.name, W.Workload.compile w)) bundled
    @ oracle_examples ()
  in
  Alcotest.(check int) "41 bundled workloads" 41 (List.length bundled);
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun protection ->
          let built = P.build protection prog in
          check_address_map
            (name ^ "/" ^ P.protection_name protection)
            (M.Loader.load built.P.prog built.P.config))
        [ P.Vanilla; P.Cpi; P.Cfi_type; P.Hardened ])
    programs

(* Functions are laid out and compiled on first use, once per image: a
   call compiled into a caller does not touch the callee, a second run
   reuses every slot and its code, and [Loader.layout] lays out a
   function that never ran, with the layout [layout_of_func] computes,
   without compiling it. *)
let test_loader_lazy () =
  let prog =
    Helpers.compile
      {|int unused(int x) { char buf[8]; buf[0] = x; return buf[0]; }
        int rare(int x) { return x * 2; }
        int f(int x) { return x + 1; }
        int main() { if (read_int() == 7) { return rare(3); } return f(1); }|}
  in
  let built = P.build P.Safe_stack prog in
  let image = M.Loader.load built.P.prog built.P.config in
  let fns = image.M.Loader.fns in
  let slot name = fns.(Hashtbl.find image.M.Loader.fn_index name) in
  let untouched name = slot name == M.Loader.untouched in
  let compiled name =
    match (slot name).M.Loader.code with
    | M.Loader.Not_compiled -> false
    | _ -> true
  in
  Alcotest.(check bool) "nothing laid out or compiled at load" true
    (Array.for_all (fun s -> s == M.Loader.untouched) fns);
  let first = M.Interp.run image in
  Alcotest.(check bool) "main and f laid out and compiled" true
    (compiled "main" && compiled "f");
  Alcotest.(check bool) "callee of an untaken call still untouched" true
    (untouched "rare");
  Alcotest.(check bool) "unreferenced function still untouched" true
    (untouched "unused");
  let slots = Array.copy fns in
  let codes = Array.map (fun s -> s.M.Loader.code) slots in
  let second = M.Interp.run image in
  Alcotest.(check int) "same cycles" first.M.Interp.cycles
    second.M.Interp.cycles;
  Array.iteri
    (fun i s ->
      Alcotest.(check bool) "second run reuses every slot" true
        (fns.(i) == s && fns.(i).M.Loader.code == codes.(i)))
    slots;
  let fn = Prog.find_func built.P.prog "unused" in
  Alcotest.(check bool) "layout of a function that never ran" true
    (M.Loader.layout image "unused"
     = M.Loader.layout_of_func built.P.prog.Prog.tenv built.P.config fn);
  Alcotest.(check bool) "layout lays it out" false (untouched "unused");
  Alcotest.(check bool) "layout does not compile it" false (compiled "unused")

let test_loader_aslr_slide () =
  let prog = Helpers.compile "int main() { return 0; }" in
  let plain = M.Loader.load prog M.Config.vanilla in
  let slid = M.Loader.load prog M.Config.hardened_baseline in
  Alcotest.(check int) "no slide" 0 plain.M.Loader.slide;
  Alcotest.(check int) "aslr slide" M.Layout.aslr_slide slid.M.Loader.slide;
  Alcotest.(check int) "entry shifted by slide"
    (M.Loader.entry_addr plain "main" + M.Layout.aslr_slide)
    (M.Loader.entry_addr slid "main")

let test_loader_frame_layouts () =
  let prog =
    Helpers.compile
      {|int main() { int x; char buf[10]; gets(buf); x = buf[0]; return x; }|}
  in
  (* vanilla: everything on the regular stack, ret slot included *)
  let v = M.Loader.load prog M.Config.vanilla in
  let lv = M.Loader.layout v "main" in
  Alcotest.(check bool) "vanilla ret regular" false lv.M.Loader.fl_ret_on_safe;
  Alcotest.(check bool) "vanilla frame holds everything" true
    (lv.M.Loader.fl_regular_size >= 12);
  (* safe stack: ret + scalar on safe side, buffer on unsafe side *)
  let built = Levee_core.Pipeline.build Levee_core.Pipeline.Safe_stack prog in
  let s =
    M.Loader.load built.Levee_core.Pipeline.prog built.Levee_core.Pipeline.config
  in
  let ls = M.Loader.layout s "main" in
  Alcotest.(check bool) "safestack ret safe" true ls.M.Loader.fl_ret_on_safe;
  Alcotest.(check bool) "unsafe frame present" true ls.M.Loader.fl_has_unsafe;
  Alcotest.(check bool) "buffer on regular side" true
    (ls.M.Loader.fl_regular_size >= 10)

let test_mpx_store () =
  let s = SS.create SS.Mpx in
  SS.set s 77 (entry 5);
  Alcotest.(check bool) "mpx stores like two-level" true (SS.get s 77 <> None);
  Alcotest.(check bool) "mpx impl round-trips" true (SS.impl_of s = SS.Mpx);
  Alcotest.(check bool) "mpx lookup cheapest" true
    (SS.lookup_cost SS.Mpx < SS.lookup_cost SS.Simple_array)

let () =
  Alcotest.run "machine"
    [ ("mem",
       [ t "read/write" test_mem_rw; t "footprint" test_mem_footprint ]);
      ("safestore",
       [ t "array basic" (test_store_basic SS.Simple_array);
         t "two-level basic" (test_store_basic SS.Two_level);
         t "hashtable basic" (test_store_basic SS.Hashtable);
         t "footprint ordering" test_store_footprints;
         QCheck_alcotest.to_alcotest store_ops_equivalent ]);
      ("heap",
       [ t "alloc/free/reuse" test_heap_alloc_free;
         t "error traps" test_heap_errors;
         t "zeroing" test_heap_zeroing ]);
      ("layout", [ t "regions" test_layout_regions ]);
      ("loader",
       [ t "code addressing" test_loader_code_addressing;
         t "address map matches the per-instruction oracle"
           test_loader_address_oracle;
         t "laid out and compiled on first use" test_loader_lazy;
         t "aslr slide" test_loader_aslr_slide;
         t "frame layouts" test_loader_frame_layouts ]);
      ("mpx", [ t "hardware store organisation" test_mpx_store ]) ]
