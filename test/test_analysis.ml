(* Static analysis tests: Fig. 7 sensitivity, char* heuristic, unsafe-cast
   data-flow augmentation, safe stack classification. *)

module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog
module I = Levee_ir.Instr
module An = Levee_analysis

let t name f = Alcotest.test_case name `Quick f

let ctx_of src =
  let prog = Levee_minic.Lower.compile src in
  (An.Sensitivity.create prog.Prog.tenv, prog)

let test_fig7_criterion () =
  let ctx, _ =
    ctx_of
      {|struct plain { int a; int b; };
        struct vt { int (*m)(int); };
        struct holder { int x; struct vt *table; };
        struct selfref { int v; struct selfref *next; };
        int main() { return 0; }|}
  in
  let sens = An.Sensitivity.is_sensitive ctx in
  Alcotest.(check bool) "int" false (sens Ty.Int);
  Alcotest.(check bool) "char" false (sens Ty.Char);
  Alcotest.(check bool) "int*" false (sens (Ty.Ptr Ty.Int));
  Alcotest.(check bool) "void*" true (sens (Ty.Ptr Ty.Void));
  Alcotest.(check bool) "char*" true (sens (Ty.Ptr Ty.Char));
  Alcotest.(check bool) "fn ptr" true (sens (Ty.Ptr (Ty.Fn ([ Ty.Int ], Ty.Int))));
  Alcotest.(check bool) "ptr to plain struct" false (sens (Ty.Ptr (Ty.Struct "plain")));
  Alcotest.(check bool) "ptr to vtable struct" true (sens (Ty.Ptr (Ty.Struct "vt")));
  Alcotest.(check bool) "ptr to struct holding vtable ptr" true
    (sens (Ty.Ptr (Ty.Struct "holder")));
  Alcotest.(check bool) "code-ptr-free self-referential struct" false
    (sens (Ty.Ptr (Ty.Struct "selfref")));
  Alcotest.(check bool) "ptr to ptr to fn" true
    (sens (Ty.Ptr (Ty.Ptr (Ty.Fn ([], Ty.Void)))));
  Alcotest.(check bool) "array of fn ptrs" true
    (sens (Ty.Arr (Ty.Ptr (Ty.Fn ([], Ty.Void)), 4)))

let test_annotated_struct_sensitive () =
  let ctx, _ =
    ctx_of
      {|sensitive struct ucred { int uid; int gid; };
        int main() { return 0; }|}
  in
  Alcotest.(check bool) "annotated struct ptr sensitive" true
    (An.Sensitivity.is_sensitive ctx (Ty.Ptr (Ty.Struct "ucred")))

let test_cps_criterion () =
  let ctx, _ = ctx_of "int main() { return 0; }" in
  let cps = An.Sensitivity.is_cps_sensitive ctx in
  Alcotest.(check bool) "fn ptr" true (cps (Ty.Ptr (Ty.Fn ([], Ty.Void))));
  Alcotest.(check bool) "void*" true (cps (Ty.Ptr Ty.Void));
  Alcotest.(check bool) "ptr to fn ptr NOT cps" false
    (cps (Ty.Ptr (Ty.Ptr (Ty.Fn ([], Ty.Void)))));
  Alcotest.(check bool) "int* not cps" false (cps (Ty.Ptr Ty.Int))

(* char* heuristic: string-only pointers demoted, laundering sites kept *)
let count m = List.length (An.Usedef.positions m)

let demoted_in prog =
  let demoted = An.Strheur.demoted ~usedef:(An.Usedef.of_prog prog) prog in
  Prog.fold_funcs prog (fun n fn -> n + count (demoted fn.Prog.fname)) 0

let demoted_count src = demoted_in (Levee_minic.Lower.compile src)

let test_strheur_demotes_strings () =
  let n =
    demoted_count
      {|int main() {
          char *msg = "hello";
          char buf[16];
          strcpy(buf, msg);
          print_str(msg);
          return strlen(msg);
        }|}
  in
  Alcotest.(check bool) "string pointer accesses demoted" true (n > 0)

let test_strheur_keeps_laundered () =
  (* a char* that carries a function pointer must stay protected *)
  let n =
    demoted_count
      {|int f(int x) { return x; }
        char *sneak;
        int main() {
          sneak = (char*) f;
          int (*g)(int) = (int (*)(int)) sneak;
          return g(3);
        }|}
  in
  Alcotest.(check int) "laundering site not demoted" 0 n

let test_strheur_consistency () =
  (* demotion must cover loads and stores of a site together *)
  let prog =
    Levee_minic.Lower.compile
      {|char *greeting = "hi";
        int use1() { return strlen(greeting); }
        int use2() { print_str(greeting); return 0; }
        int main() { greeting = "other"; return use1() + use2(); }|}
  in
  Alcotest.(check bool) "whole site demoted" true (demoted_in prog >= 3)

let test_castflow () =
  let ctx, prog =
    ctx_of
      {|int f(int x) { return x; }
        int slot;
        int main() {
          slot = (int) f;
          int v = slot;
          int (*g)(int) = (int (*)(int)) v;
          return g(1);
        }|}
  in
  let fn = Prog.find_func prog "main" in
  let forced = An.Castflow.forced_load_positions ctx (An.Usedef.build fn) in
  Alcotest.(check bool) "load feeding sensitive cast is forced" true
    (count forced > 0)

(* regression: the forced-value walk must follow EVERY dataflow route to
   the sensitive cast, not just the syntactic origin chain. Routing the
   loaded value through [w = 0 + v] (interesting operand on the right of
   the Bin) or through a Gep base used to hide the load from the old
   origin-based walker. *)
let forced_count src fname =
  let ctx, prog = ctx_of src in
  let fn = Prog.find_func prog fname in
  count (An.Castflow.forced_load_positions ctx (An.Usedef.build fn))

let test_castflow_multipath () =
  let n =
    forced_count
      {|int f(int x) { return x; }
        int slot;
        int main() {
          slot = (int) f;
          int v = slot;
          int w = 0 + v;
          int (*g)(int) = (int (*)(int)) w;
          return g(1);
        }|}
      "main"
  in
  Alcotest.(check bool) "load routed through Imm-left Bin still forced" true
    (n > 0)

let test_castflow_no_false_force () =
  (* a load whose value never reaches a sensitive cast must not be forced *)
  let n =
    forced_count
      {|int slot;
        int main() {
          slot = 7;
          int v = slot;
          int w = 0 + v;
          return w;
        }|}
      "main"
  in
  Alcotest.(check int) "pure data flow not forced" 0 n

let test_unsafe_cast_positions () =
  let ctx, prog =
    ctx_of
      {|int f(int x) { return x; }
        int main() {
          int v = 12345;
          int (*g)(int) = (int (*)(int)) v;
          int h = (int) f;
          return h + (g == 0);
        }|}
  in
  let fn = Prog.find_func prog "main" in
  let pos = An.Castflow.unsafe_cast_positions ctx fn in
  (* exactly the int->fnptr direction produces a sensitive value; the
     fnptr->int cast is not a code-pointer forgery site *)
  Alcotest.(check int) "one unsafe-cast site" 1 (count pos)

(* safe stack analysis *)
let verdicts_of src fname =
  let prog = Levee_minic.Lower.compile src in
  let fn = Prog.find_func prog fname in
  let verdicts, needs =
    An.Stackanalysis.classify prog.Prog.tenv (An.Usedef.build fn)
  in
  (verdicts, needs, fn)

let count_verdict verdicts v =
  Hashtbl.fold (fun _ x acc -> if x = v then acc + 1 else acc) verdicts 0

let test_stack_scalars_safe () =
  let verdicts, needs, _ =
    verdicts_of
      {|int main() { int a = 1; int b = 2; int c; c = a + b; return c; }|}
      "main"
  in
  Alcotest.(check int) "all safe"
    (Hashtbl.length verdicts)
    (count_verdict verdicts An.Stackanalysis.Safe);
  Alcotest.(check bool) "no unsafe frame" false needs

let test_stack_buffers_unsafe () =
  let verdicts, needs, _ =
    verdicts_of
      {|int main() { char buf[16]; gets(buf); return buf[0]; }|}
      "main"
  in
  Alcotest.(check bool) "needs unsafe frame" true needs;
  Alcotest.(check bool) "at least one unsafe" true
    (count_verdict verdicts An.Stackanalysis.Unsafe >= 1)

let test_stack_escape_unsafe () =
  let verdicts, needs, _ =
    verdicts_of
      {|void set(int *p, int v) { *p = v; }
        int main() { int x = 0; set(&x, 3); return x; }|}
      "main"
  in
  ignore verdicts;
  Alcotest.(check bool) "address-taken local is unsafe" true needs

let test_stack_const_index_safe () =
  let _, needs, _ =
    verdicts_of
      {|struct pair { int a; int b; };
        int main() { struct pair p; p.a = 1; p.b = 2; return p.a + p.b; }|}
      "main"
  in
  Alcotest.(check bool) "struct with const fields safe" false needs

let test_stack_dynamic_index_unsafe () =
  let _, needs, _ =
    verdicts_of
      {|int main() { int a[8]; int i; for (i = 0; i < 8; i = i + 1) { a[i] = i; }
         return a[3]; }|}
      "main"
  in
  Alcotest.(check bool) "dynamically indexed array unsafe" true needs

let test_usedef_origin () =
  let prog =
    Levee_minic.Lower.compile
      {|int g;
        int main() {
          int *p = (int*) malloc(3);
          int *q = &g;
          int *r = p + 2;
          return (q == r) + *p;
        }|}
  in
  let fn = Prog.find_func prog "main" in
  let ud = An.Usedef.build fn in
  let origins = ref [] in
  Prog.iter_instrs fn (fun i ->
      match i with
      | I.Store { ty = Ty.Ptr Ty.Int; v; _ } ->
        origins := An.Usedef.origin ud v :: !origins
      | _ -> ());
  let has o = List.mem o !origins in
  Alcotest.(check bool) "malloc origin" true (has An.Usedef.From_malloc);
  Alcotest.(check bool) "global origin" true (has (An.Usedef.From_global "g"))

(* Use-def maps by hand: parameters have no defining instruction, a
   register's uses come in reverse program order (a terminator counts as
   after its block's instructions), and registers outside the function
   answer nothing. *)
let test_usedef_defs_uses () =
  let module B = Levee_ir.Builder in
  let b =
    B.create ~name:"f" ~params:[ ("p", Ty.Ptr Ty.Int); ("n", Ty.Int) ]
      ~ret_ty:Ty.Int
  in
  let x = B.load b Ty.Int (I.Reg 0) in
  let y = B.bin b I.Add (I.Reg x) (I.Reg 1) in
  B.store b Ty.Int (I.Reg y) (I.Reg 0);
  let c = B.cmp b I.Lt (I.Reg 1) (I.Reg y) in
  let exit = B.new_block b in
  B.position_at b 0;
  B.set_term b (I.Br (I.Reg c, exit, exit));
  B.position_at b exit;
  B.set_term b (I.Ret (Some (I.Reg y)));
  let fn = B.finish b in
  let ud = An.Usedef.build fn in
  let at idx = { An.Usedef.block = 0; idx } in
  let def_at r =
    match An.Usedef.def ud r with
    | Some (pos, i) ->
      Alcotest.(check bool) "the instruction itself" true
        (i == fn.Prog.blocks.(pos.An.Usedef.block).Prog.instrs.(pos.An.Usedef.idx));
      Some pos
    | None -> None
  in
  let pos = Alcotest.testable (fun ppf (p : An.Usedef.pos) ->
      Format.fprintf ppf "b%d.%d" p.An.Usedef.block p.An.Usedef.idx) ( = )
  in
  Alcotest.(check (option pos)) "param p" None (def_at 0);
  Alcotest.(check (option pos)) "param n" None (def_at 1);
  Alcotest.(check (option pos)) "load" (Some (at 0)) (def_at x);
  Alcotest.(check (option pos)) "add" (Some (at 1)) (def_at y);
  Alcotest.(check (option pos)) "cmp" (Some (at 3)) (def_at c);
  let uses r = An.Usedef.uses_of ud r in
  Alcotest.(check bool) "p: store address, then load address" true
    (uses 0
     = [ An.Usedef.Store_addr (at 2, Ty.Int); An.Usedef.Load_addr (at 0, Ty.Int) ]);
  Alcotest.(check bool) "n: compared, then added" true
    (uses 1 = [ An.Usedef.Cmp_op (at 3); An.Usedef.Bin_op (at 1, y) ]);
  Alcotest.(check bool) "sum: returned, compared, stored" true
    (uses y
     = [ An.Usedef.Ret_val; An.Usedef.Cmp_op (at 3);
         An.Usedef.Store_val (at 2, Ty.Int) ]);
  Alcotest.(check bool) "condition" true (uses c = [ An.Usedef.Branch_cond ]);
  Alcotest.(check bool) "loaded value feeds the add" true
    (uses x = [ An.Usedef.Bin_op (at 1, y) ]);
  List.iter
    (fun r ->
      Alcotest.(check (option pos)) "no def out of range" None (def_at r);
      Alcotest.(check int) "no uses out of range" 0 (List.length (uses r)))
    [ -1; fn.Prog.nregs; fn.Prog.nregs + 100 ]

(* ---------- diag: thread-unsafe-intrinsic ---------- *)

let conc_diag_src =
  {|int lk;
    int inc(int x) { return x + 1; }
    int dbl(int x) { return x * 2; }
    int (*handlers[4])(int);
    int install(int i) {
      handlers[i] = inc;
      return i;
    }
    int worker(int wid) {
      int j;
      handlers[wid] = dbl;
      mutex_lock(&lk);
      handlers[wid + 1] = inc;
      mutex_unlock(&lk);
      j = install(wid);
      return handlers[j](j);
    }
    int main() {
      int t;
      int r;
      t = thread_spawn(worker, 1);
      r = thread_join(t);
      handlers[0] = inc;
      print_int(r);
      return 0;
    }|}

let thread_unsafe_findings src =
  let prog = Levee_minic.Lower.compile src in
  let report = An.Diag.analyze prog in
  List.filter
    (fun f -> f.An.Diag.kind = "thread-unsafe-intrinsic")
    report.An.Diag.findings

let test_thread_unsafe_intrinsic () =
  let fs = thread_unsafe_findings conc_diag_src in
  Alcotest.(check int) "three unlocked sensitive accesses" 3
    (List.length fs);
  let in_fn name =
    List.length (List.filter (fun f -> f.An.Diag.func = name) fs)
  in
  Alcotest.(check int) "install flagged" 1 (in_fn "install");
  Alcotest.(check int) "worker flagged twice (store + load)" 2 (in_fn "worker");
  Alcotest.(check int) "main not spawn-reachable" 0 (in_fn "main");
  List.iter
    (fun f ->
      Alcotest.(check bool) "warning severity" true
        (f.An.Diag.severity = An.Diag.Warning))
    fs

let test_thread_unsafe_silent_when_single_threaded () =
  (* Same accesses, no thread_spawn: nothing is spawn-reachable. *)
  let src =
    {|int inc(int x) { return x + 1; }
      int (*handlers[4])(int);
      int install(int i) { handlers[i] = inc; return i; }
      int main() { install(0); return handlers[0](1); }|}
  in
  Alcotest.(check int) "no findings" 0
    (List.length (thread_unsafe_findings src))

let () =
  Alcotest.run "analysis"
    [ ("sensitivity",
       [ t "Fig. 7 criterion" test_fig7_criterion;
         t "programmer annotation" test_annotated_struct_sensitive;
         t "CPS criterion" test_cps_criterion ]);
      ("char* heuristic",
       [ t "demotes string pointers" test_strheur_demotes_strings;
         t "keeps laundered code pointers" test_strheur_keeps_laundered;
         t "site-level consistency" test_strheur_consistency ]);
      ("cast dataflow",
       [ t "forces loads feeding sensitive casts" test_castflow;
         t "multi-path value routing" test_castflow_multipath;
         t "no false forcing on pure data" test_castflow_no_false_force;
         t "unsafe-cast positions" test_unsafe_cast_positions ]);
      ("safe stack",
       [ t "scalars safe" test_stack_scalars_safe;
         t "buffers unsafe" test_stack_buffers_unsafe;
         t "escapes unsafe" test_stack_escape_unsafe;
         t "const fields safe" test_stack_const_index_safe;
         t "dynamic index unsafe" test_stack_dynamic_index_unsafe ]);
      ("usedef",
       [ t "origin tracing" test_usedef_origin;
         t "defs and uses" test_usedef_defs_uses ]);
      ("diag",
       [ t "thread-unsafe-intrinsic flags unlocked accesses"
           test_thread_unsafe_intrinsic;
         t "silent without thread_spawn"
           test_thread_unsafe_silent_when_single_threaded ]) ]
