(* Instrumentation pass tests: what CPI/CPS/SafeStack/SoftBound/CFI/cookie
   passes mark, the Table-2 statistics, and pipeline integrity. *)

module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog
module I = Levee_ir.Instr
module P = Levee_core.Pipeline
module Stats = Levee_core.Stats
module M = Levee_machine

let t name f = Alcotest.test_case name `Quick f

let fptr_prog = {|
int h1(int x) { return x + 1; }
int h2(int x) { return x * 2; }
int (*table[2])(int) = { h1, h2 };
int data[8];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 8; i = i + 1) { data[i] = i; }
  for (i = 0; i < 8; i = i + 1) { s = s + table[i & 1](data[i]); }
  return s & 255;
}
|}

let build prot src = P.build prot (Levee_minic.Lower.compile src)

(* Instructions [pred i knob] holds for. *)
let count_instr prog pred =
  Prog.fold_funcs prog
    (fun acc fn ->
      let c = ref 0 in
      Prog.iteri_instrs fn (fun bid idx i ->
          if pred i (Prog.knob fn bid idx) then incr c);
      acc + !c)
    0

let routed where prog =
  count_instr prog (fun _ k ->
      match k with I.Access (w, _) -> w = where | _ -> false)

let checked prog =
  count_instr prog (fun _ k -> match k with I.Access (_, c) -> c | _ -> false)

let test_cpi_marks () =
  let b = build P.Cpi fptr_prog in
  let safefull = routed I.SafeFull b.P.prog and checked = checked b.P.prog in
  Alcotest.(check bool) "fptr table accesses instrumented" true (safefull > 0);
  Alcotest.(check bool) "derefs checked" true (checked > 0);
  (* plain int array accesses stay uninstrumented *)
  let total = (Stats.collect b.P.prog).Stats.mem_ops_total in
  Alcotest.(check bool) "selective (< half of mem ops)" true (safefull * 2 < total)

let test_cps_marks () =
  let b = build P.Cps fptr_prog in
  Alcotest.(check bool) "code ptr accesses via SafeValue" true
    (routed I.SafeValue b.P.prog > 0);
  Alcotest.(check int) "CPS needs no checks" 0 (checked b.P.prog)

let test_cps_subset_of_cpi () =
  (* MOCPS <= MOCPI on every program (Table 2's key premise) *)
  List.iter
    (fun (w : Levee_workloads.Workload.t) ->
      let prog = Levee_workloads.Workload.compile w in
      let cps = (P.build P.Cps prog).P.stats in
      let cpi = (P.build P.Cpi prog).P.stats in
      Alcotest.(check bool)
        (w.Levee_workloads.Workload.name ^ ": MOCPS <= MOCPI") true
        (Stats.mo_instrumented cps <= Stats.mo_instrumented cpi +. 1e-9))
    [ Levee_workloads.Spec.find "400.perlbench";
      Levee_workloads.Spec.find "471.omnetpp";
      Levee_workloads.Spec.find "403.gcc" ]

(* A code pointer lives only in CPS's safe store: a copy or clear of
   memory that may hold one must move or drop the entries too, and one
   whose memory never reaches code stays a plain libc call. *)
let test_cps_copies () =
  let intrin op safe prog =
    count_instr prog (fun i k ->
        match i with
        | I.Intrin { op = o; _ } -> o = op && (k = I.Safe_memop) = safe
        | _ -> false)
  in
  let src =
    In_channel.with_open_bin "../examples/minic/structcopy.c"
      In_channel.input_all
  in
  let b = build P.Cps src in
  Alcotest.(check (pair int int)) "struct copy and clear use the store" (1, 1)
    (intrin I.I_memcpy true b.P.prog, intrin I.I_memset true b.P.prog);
  let plain = build P.Cps {|
int a[4];
int b[4];
int main() {
  a[0] = 5;
  memcpy(b, a, 4);
  memset(a, 0, 4);
  return b[0];
}
|} in
  Alcotest.(check (pair int int)) "data-only copy and clear stay plain" (1, 1)
    (intrin I.I_memcpy false plain.P.prog, intrin I.I_memset false plain.P.prog);
  let r = M.Interp.run_program ~fuel:10_000 b.P.prog b.P.config in
  Alcotest.(check string) "benign run agrees with vanilla" "cleared\n42\n"
    r.M.Interp.output

(* A struct holding a code pointer, copied at the bottom of a six-deep
   chain of direct calls: the front end spills every parameter, so the
   copy's arguments are loaded pointers, and CPI must keep the safe-store
   entry moving with the struct. *)
let deep_copy_prog = {|
struct S { int (*f)(int); int x; };
int inc(int v) { return v + 1; }
int copy6(struct S *d, struct S *s) { memcpy(d, s, 2); return d->x; }
int copy5(struct S *d, struct S *s) { return copy6(d, s); }
int copy4(struct S *d, struct S *s) { return copy5(d, s); }
int copy3(struct S *d, struct S *s) { return copy4(d, s); }
int copy2(struct S *d, struct S *s) { return copy3(d, s); }
int copy1(struct S *d, struct S *s) { return copy2(d, s); }
int main() {
  struct S a;
  struct S b;
  a.f = inc;
  a.x = 7;
  print_int(copy1(&b, &a));
  print_int(b.f(41));
  return 0;
}
|}

let test_cpi_deep_copy () =
  let prog = Levee_minic.Lower.compile deep_copy_prog in
  let b = P.build P.Cpi prog in
  let copy6 = Prog.find_func b.P.prog "copy6" in
  let knobs = ref [] in
  Prog.iteri_instrs copy6 (fun bid idx -> function
    | I.Intrin { op = I.I_memcpy; _ } ->
      knobs := Prog.knob copy6 bid idx :: !knobs
    | _ -> ());
  Alcotest.(check bool) "copy goes through cpi_memcpy" true
    (!knobs = [ I.Safe_memop ]);
  let run prot =
    let b = P.build prot prog in
    let r = M.Interp.run_program ~fuel:100_000 b.P.prog b.P.config in
    (M.Trap.outcome_to_string r.M.Interp.outcome, r.M.Interp.output)
  in
  let vanilla = run P.Vanilla in
  Alcotest.(check (pair string string)) "vanilla copies the handler"
    ("exit(0)", "7\n42\n") vanilla;
  List.iter
    (fun prot ->
      Alcotest.(check (pair string string))
        (P.protection_name prot ^ " agrees with vanilla") vanilla (run prot))
    P.all_protections

let test_softbound_marks () =
  let b = build P.Softbound fptr_prog in
  let stats = Stats.collect b.P.prog in
  Alcotest.(check int) "all mem ops checked" stats.Stats.mem_ops_total
    stats.Stats.mem_ops_checked

let test_safestack_slots () =
  let b = build P.Safe_stack {|
int consume(int *p) { return p[0]; }
int main() {
  int scalar = 3;
  int buf[8];
  buf[0] = scalar;
  return consume(buf) + scalar;
}
|}
  in
  let safe = count_instr b.P.prog (fun _ k -> k = I.Slot I.SafeSlot) in
  let unsafe = count_instr b.P.prog (fun _ k -> k = I.Slot I.UnsafeSlot) in
  Alcotest.(check bool) "has safe slots" true (safe > 0);
  Alcotest.(check bool) "has unsafe slots" true (unsafe > 0)

let test_cookie_pass () =
  let b = build P.Cookies {|
int with_buf() { char b[8]; gets(b); return b[0]; }
int no_buf(int x) { return x + 1; }
int main() { return no_buf(with_buf()); }
|}
  in
  Alcotest.(check bool) "buffer function guarded" true
    (Prog.find_func b.P.prog "with_buf").Prog.cookie;
  Alcotest.(check bool) "scalar function unguarded" false
    (Prog.find_func b.P.prog "no_buf").Prog.cookie

let test_cfi_pass () =
  let b = build P.Cfi fptr_prog in
  let marked = count_instr b.P.prog (fun _ k -> k = I.Cfi None) in
  Alcotest.(check bool) "indirect calls marked" true (marked > 0)

let test_pipeline_verifies_all () =
  let prog = Levee_minic.Lower.compile fptr_prog in
  List.iter
    (fun prot ->
      let b = P.build prot prog in
      match Levee_ir.Verify.program_result b.P.prog with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (P.protection_name prot) e)
    P.all_protections

(* A build never writes its source: after every protection's build of a
   SPEC program, the source prints as before and has no knobs, and each
   build's functions share its blocks. *)
let test_source_untouched () =
  List.iter
    (fun (w : Levee_workloads.Workload.t) ->
      let src = Levee_workloads.Workload.compile w in
      let before = Levee_ir.Printer.program src in
      List.iter
        (fun prot ->
          let b = P.build prot src in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: blocks shared" w.Levee_workloads.Workload.name
               (P.protection_name prot))
            true
            (Prog.fold_funcs src
               (fun ok fn ->
                 ok && (Prog.find_func b.P.prog fn.Prog.fname).Prog.blocks
                       == fn.Prog.blocks)
               true))
        P.all_protections;
      Alcotest.(check string) (w.Levee_workloads.Workload.name ^ ": source as before")
        before (Levee_ir.Printer.program src);
      Alcotest.(check bool) (w.Levee_workloads.Workload.name ^ ": no knobs") true
        (Prog.fold_funcs src (fun ok fn -> ok && fn.Prog.knobs = [||]) true))
    Levee_workloads.Spec.all

let test_behaviour_preserved () =
  (* all protections preserve the behaviour of a benign program *)
  let prog = Levee_minic.Lower.compile fptr_prog in
  let expect =
    let b = P.build P.Vanilla prog in
    (M.Interp.run_program b.P.prog b.P.config).M.Interp.outcome
  in
  List.iter
    (fun prot ->
      let b = P.build prot prog in
      let r = M.Interp.run_program b.P.prog b.P.config in
      Alcotest.(check bool)
        (P.protection_name prot ^ " behaves identically") true
        (r.M.Interp.outcome = expect))
    P.all_protections

(* A build makes one use-def per function and hands it to every reader:
   driving a cpi build's steps by hand with one table, the safe-stack
   analysis, the char* heuristic and the plan each ask for every function
   and get physically the table's use-def, the plan keeps that one, and
   the result is the pipeline's own build. *)
let test_one_usedef_per_build () =
  let module An = Levee_analysis in
  let src =
    Levee_minic.Lower.compile
      (In_channel.with_open_bin "../examples/minic/fptr_zoo.c"
         In_channel.input_all)
  in
  let prog = Prog.build src in
  let table = An.Usedef.of_prog prog in
  let asked = ref [] in
  let usedef who fname =
    let ud = table fname in
    asked := (who, fname, ud) :: !asked;
    ud
  in
  let points_to () = An.Pointsto.analyze src in
  Levee_core.Safestack_pass.run ~usedef:(usedef "stack") prog;
  let _demoted : string -> An.Usedef.marks =
    An.Strheur.demoted ~usedef:(usedef "char*") prog
  in
  let plan =
    An.Plan.create ~refine:true ~pinned:[] ~points_to ~usedef:(usedef "plan")
      prog
  in
  ignore (An.Plan.demoted_count plan);
  Prog.iter_funcs prog (fun fn ->
      let fname = fn.Prog.fname in
      let ud = table fname in
      Alcotest.(check bool) (fname ^ ": the plan keeps it") true
        (An.Plan.usedef (An.Plan.func plan fname) == ud);
      List.iter
        (fun who ->
          let got =
            List.filter_map
              (fun (w, f, u) -> if w = who && f = fname then Some u else None)
              !asked
          in
          Alcotest.(check bool) (fname ^ ": " ^ who ^ " reads it") true
            (got <> [] && List.for_all (fun u -> u == ud) got))
        [ "stack"; "char*"; "plan" ]);
  ignore
    (Levee_core.Cpi_pass.run ~points_to ~usedef:(usedef "cpi") prog);
  Alcotest.(check string) "the pipeline's build"
    (Levee_ir.Printer.program (P.build ~elide:false P.Cpi src).P.prog)
    (Levee_ir.Printer.program prog)

let test_annotated_data_protection () =
  (* the struct-ucred use case: protect annotated plain data against an
     arbitrary-write corruption (Section 4, "sensitive data protection") *)
  let src = {|
sensitive struct ucred { int uid; int gid; };
char gbuf[8];
struct ucred cred;
int main() {
  cred.uid = 1000;
  gets(gbuf);               // overflows into cred in the regular region
  if (cred.uid == 0) { system("rootshell"); }
  return cred.uid == 1000 ? 0 : 1;
}
|}
  in
  let prog = Levee_minic.Lower.compile src in
  (* attacker overflows gbuf to set uid = 0 *)
  let dist =
    let vanilla = P.build P.Vanilla prog in
    let img = M.Loader.load vanilla.P.prog vanilla.P.config in
    Hashtbl.find img.M.Loader.global_addr "cred"
    - Hashtbl.find img.M.Loader.global_addr "gbuf"
  in
  let payload = Array.make (dist + 1) 0 in
  let outcome prot =
    let b = P.build prot prog in
    (M.Interp.run_program ~input:payload b.P.prog b.P.config).M.Interp.outcome
  in
  (match outcome P.Vanilla with
   | M.Trap.Hijacked _ -> ()
   | o -> Alcotest.failf "vanilla uid corruption: %s" (M.Trap.outcome_to_string o));
  match outcome P.Cpi with
  | M.Trap.Exit 0 -> ()
  | o -> Alcotest.failf "cpi should keep uid intact: %s" (M.Trap.outcome_to_string o)

(* The annotation travels in the IR: the plain front end alone, with no
   side channel, protects all four accesses to the annotated struct. *)
let test_annotation_in_ir () =
  let src =
    In_channel.with_open_bin "../examples/minic/annotated.c"
      In_channel.input_all
  in
  let b = P.build P.Cpi (Levee_minic.Lower.compile ~name:"annotated.c" src) in
  Alcotest.(check int) "all 4 memory ops instrumented" 4
    b.P.stats.Stats.mem_ops_instrumented;
  Alcotest.(check int) "of 4" 4 b.P.stats.Stats.mem_ops_total

let test_stats_fields () =
  let b = build P.Cpi fptr_prog in
  let s = b.P.stats in
  Alcotest.(check bool) "funcs counted" true (s.Stats.funcs_total >= 3);
  Alcotest.(check bool) "fnustack fraction in range" true
    (Stats.fnustack s >= 0.0 && Stats.fnustack s <= 1.0);
  Alcotest.(check bool) "mo fraction in range" true
    (Stats.mo_instrumented s > 0.0 && Stats.mo_instrumented s < 1.0)

(* ---------- redundant-check elision ---------- *)

module Checkelim = Levee_core.Checkelim_pass
module V = Levee_ir.Verify

(* compare e->cb against null, then call through it: the second load of
   e->cb re-checks an address whose check already executed on every path,
   with no store/call in between — the textbook elidable check *)
let elidable_prog = {|
struct ev { int (*cb)(int); int armed; };
int inc(int x) { return x + 1; }
struct ev g;
int fire(struct ev *e, int x) {
  if (e->cb != 0) { return e->cb(x); }
  return 0;
}
int main() { g.cb = inc; print_int(fire(&g, 5)); return 0; }
|}

let test_elision_fires_and_counts () =
  let prog = Levee_minic.Lower.compile elidable_prog in
  let on = P.build ~elide:true P.Cpi prog in
  let off = P.build ~elide:false P.Cpi prog in
  Alcotest.(check bool) "at least one check elided" true
    (on.P.stats.Stats.checks_elided > 0);
  Alcotest.(check int) "elide:false reports zero" 0
    off.P.stats.Stats.checks_elided;
  Alcotest.(check int) "each cert removes exactly one runtime check"
    (checked off.P.prog - on.P.stats.Stats.checks_elided)
    (checked on.P.prog)

let test_elision_certs_validate () =
  (* replay the pass by hand on an un-elided build: every certificate it
     emits must survive the independent checker *)
  let b = P.build ~elide:false P.Cpi (Levee_minic.Lower.compile elidable_prog) in
  let certs = Checkelim.run b.P.prog in
  Alcotest.(check bool) "pass emits certificates" true (certs <> []);
  (match V.check_elision b.P.prog certs with
   | Ok () -> ()
   | Error m -> Alcotest.failf "checker rejected the pass's own certs: %s" m)

let test_elision_bogus_cert_rejected () =
  let b = P.build ~elide:false P.Cpi (Levee_minic.Lower.compile elidable_prog) in
  let rejected c =
    match V.check_elision b.P.prog [ c ] with
    | Ok () -> false
    | Error _ -> true
  in
  Alcotest.(check bool) "out-of-range block" true
    (rejected { V.ce_func = "main"; ce_block = 999; ce_idx = 0 });
  (* b0.0 of main is an alloca/plain instr, not an unchecked access *)
  Alcotest.(check bool) "non-access position" true
    (rejected { V.ce_func = "main"; ce_block = 0; ce_idx = 0 })

let test_elision_behaviour_identical () =
  let prog = Levee_minic.Lower.compile elidable_prog in
  let run b = M.Interp.run_program ~fuel:1_000_000 b.P.prog b.P.config in
  let on = run (P.build ~elide:true P.Cpi prog) in
  let off = run (P.build ~elide:false P.Cpi prog) in
  Alcotest.(check bool) "same outcome" true
    (on.M.Interp.outcome = off.M.Interp.outcome);
  Alcotest.(check string) "same output" off.M.Interp.output on.M.Interp.output;
  Alcotest.(check bool) "elision saves cycles" true
    (on.M.Interp.cycles < off.M.Interp.cycles)

let () =
  Alcotest.run "passes"
    [ ("cpi",
       [ t "marks sensitive ops" test_cpi_marks;
         t "deep-chain struct copy" test_cpi_deep_copy;
         t "annotated data protection" test_annotated_data_protection;
         t "annotation travels in the IR" test_annotation_in_ir ]);
      ("cps",
       [ t "marks code pointers only" test_cps_marks;
         t "subset of CPI" test_cps_subset_of_cpi;
         t "code-pointer copies use the safe store" test_cps_copies ]);
      ("baselines",
       [ t "softbound checks everything" test_softbound_marks;
         t "safestack slot partition" test_safestack_slots;
         t "cookies on buffer functions" test_cookie_pass;
         t "cfi marks indirect calls" test_cfi_pass ]);
      ("pipeline",
       [ t "verifier passes for all protections" test_pipeline_verifies_all;
         t "behaviour preserved" test_behaviour_preserved;
         t "builds never write the source" test_source_untouched;
         t "one use-def per function per build" test_one_usedef_per_build;
         t "statistics" test_stats_fields ]);
      ("elision",
       [ t "fires and is counted" test_elision_fires_and_counts;
         t "certificates validate" test_elision_certs_validate;
         t "bogus certificates rejected" test_elision_bogus_cert_rejected;
         t "behaviour identical, cycles saved" test_elision_behaviour_identical ]) ]
