(* Interpreter semantics tests: traps, diversion decoding, cost model
   behaviour and memory accounting — the parts not covered by the
   language-feature tests. *)

open Helpers
module M = Levee_machine
module P = Levee_core.Pipeline

let t name f = Alcotest.test_case name `Quick f

let check_trap ?protection ?input src pred name =
  match outcome_of ?protection ?input src with
  | M.Trap.Trapped tr when pred tr -> ()
  | o -> Alcotest.failf "%s: got %s" name (M.Trap.outcome_to_string o)

let test_div_by_zero () =
  check_trap "int main() { int z = 0; return 5 / z; }"
    (function M.Trap.Division_by_zero -> true | _ -> false)
    "div by zero";
  check_trap "int main() { int z = 0; return 5 % z; }"
    (function M.Trap.Division_by_zero -> true | _ -> false)
    "mod by zero"

let test_null_deref () =
  (match outcome_of "int main() { int *p = 0; return *p; }" with
   | M.Trap.Crash _ -> ()
   | o -> Alcotest.failf "null deref: %s" (M.Trap.outcome_to_string o));
  match outcome_of "int main() { int *p = 0; *p = 1; return 0; }" with
  | M.Trap.Crash _ -> ()
  | o -> Alcotest.failf "null write: %s" (M.Trap.outcome_to_string o)

let test_fuel () =
  let r = run ~fuel:1000 "int main() { while (1) { } return 0; }" in
  Alcotest.check outcome_testable "fuel" M.Trap.Fuel_exhausted r.M.Interp.outcome

let test_stack_overflow () =
  match
    outcome_of ~fuel:200_000_000
      {|int boom(int n) { int pad[2048]; pad[0] = n; return boom(n + 1) + pad[0]; }
        int main() { return boom(0); }|}
  with
  | M.Trap.Crash msg when Helpers.contains msg "stack" -> ()
  | o -> Alcotest.failf "stack overflow: %s" (M.Trap.outcome_to_string o)

let test_oom () =
  check_trap
    {|int main() {
        while (1) { int *p = (int*) malloc(65536); p[0] = 1; }
        return 0;
      }|}
    (function M.Trap.Out_of_memory -> true | _ -> false)
    "heap exhaustion"

let test_double_free_traps () =
  check_trap
    {|int main() { int *p = (int*) malloc(4); free(p); free(p); return 0; }|}
    (function M.Trap.Double_free -> true | _ -> false)
    "double free"

let test_use_after_free_cpi () =
  (* A dangling sensitive pointer dereference must be caught by CPI's
     temporal id; vanilla silently reads reused memory. *)
  let src = {|
int target(int x) { return x + 1; }
int other(int x) { return x + 2; }
int main() {
  int (**slot)(int);
  slot = (int (**)(int)) malloc(1);
  *slot = target;
  free((void*) slot);
  // reallocate the same block: same address, new object
  int (**slot2)(int) = (int (**)(int)) malloc(1);
  *slot2 = other;
  return (*slot)(1);   // use after free through the stale pointer
}
|}
  in
  (match outcome_of ~protection:P.Cpi src with
   | M.Trap.Trapped M.Trap.Temporal_violation -> ()
   | o -> Alcotest.failf "cpi UAF: %s" (M.Trap.outcome_to_string o));
  (* vanilla executes the *wrong* function without noticing *)
  match outcome_of ~protection:P.Vanilla src with
  | M.Trap.Exit 3 -> ()
  | o -> Alcotest.failf "vanilla UAF: %s" (M.Trap.outcome_to_string o)

let test_oob_read_is_silent_vanilla () =
  (* out-of-bounds reads of non-sensitive data are not CPI's business *)
  let src =
    {|int main() { int a[4]; int b[4]; a[0] = 0; b[0] = 9; return a[5] < 99; }|}
  in
  Alcotest.(check int) "vanilla" 1 (exit_code (run ~protection:P.Vanilla src));
  Alcotest.(check int) "cpi ignores non-sensitive oob" 1
    (exit_code (run ~protection:P.Cpi src));
  (* ... but full memory safety traps it *)
  match outcome_of ~protection:P.Softbound src with
  | M.Trap.Trapped (M.Trap.Bounds_violation _) -> ()
  | o -> Alcotest.failf "softbound oob: %s" (M.Trap.outcome_to_string o)

let test_debug_mode_mirror () =
  (* CPI debug mode keeps both copies; a benign program runs identically *)
  let src = {|
int inc(int x) { return x + 1; }
int main() {
  int (*f)(int) = inc;
  int (*g[2])(int);
  g[0] = f;
  return g[0](41);
}
|}
  in
  Alcotest.(check int) "debug mode" 42 (exit_code (run ~protection:P.Cpi_debug src))

let test_costs_monotone () =
  let src = Helpers.compile "int main() { int i; int s = 0; for (i = 0; i < 100; i = i + 1) { s = s + i; } checksum(s); return 0; }" in
  let cycles prot =
    let b = P.build prot src in
    (M.Interp.run_program b.P.prog b.P.config).M.Interp.cycles
  in
  let v = cycles P.Vanilla in
  Alcotest.(check bool) "positive" true (v > 0);
  Alcotest.(check bool) "softbound costs more" true (cycles P.Softbound > v)

let test_sfi_isolation_cost () =
  let prog = Helpers.compile
      "int main() { int a[64]; int i; for (i = 0; i < 64; i = i + 1) { a[i] = i; } return a[63] - 63; }"
  in
  let cycles isolation =
    let b = P.build ~isolation P.Cpi prog in
    (M.Interp.run_program b.P.prog b.P.config).M.Interp.cycles
  in
  let seg = cycles M.Config.Segments in
  let sfi = cycles M.Config.Sfi in
  Alcotest.(check bool) "SFI strictly more expensive" true (sfi > seg);
  (* the paper reports the SFI variant stays under ~5% extra *)
  Alcotest.(check bool) "SFI under 8%" true
    (float_of_int (sfi - seg) /. float_of_int seg < 0.08)

let test_store_impl_costs () =
  let prog =
    Helpers.compile
      {|int f1(int x) { return x + 1; }
        int (*tbl[4])(int) = { f1, f1, f1, f1 };
        int main() { int i; int s = 0;
          for (i = 0; i < 200; i = i + 1) { s = s + tbl[i & 3](i); }
          return s & 127; }|}
  in
  let cycles impl =
    let b = P.build ~store_impl:impl P.Cpi prog in
    (M.Interp.run_program b.P.prog b.P.config).M.Interp.cycles
  in
  Alcotest.(check bool) "array fastest, hashtable slowest" true
    (cycles M.Safestore.Simple_array < cycles M.Safestore.Hashtable)

let test_memory_accounting () =
  let prog = Helpers.compile
      {|int h(int x) { return x; }
        int (*fp)(int) = h;
        int main() { int i; int s = 0;
          for (i = 0; i < 10; i = i + 1) { s = s + fp(i); }
          return s & 1; }|}
  in
  let b = P.build P.Cpi prog in
  let r = M.Interp.run_program b.P.prog b.P.config in
  Alcotest.(check bool) "safe store used" true (r.M.Interp.store_footprint > 0);
  let bv = P.build P.Vanilla prog in
  let rv = M.Interp.run_program bv.P.prog bv.P.config in
  Alcotest.(check int) "vanilla store empty" 0 rv.M.Interp.store_footprint

let test_output_capture () =
  let out =
    output
      {|int main() { print_int(42); print_str("done"); print_int(-1); return 0; }|}
  in
  Alcotest.(check string) "stdout" "42\ndone\n-1\n" out

(* ---- runs: each run gets a machine of its own ---- *)

let test_no_main () =
  let b = P.build P.Vanilla (Helpers.compile "int helper() { return 1; }") in
  Alcotest.check_raises "no main"
    (Invalid_argument "Interp.run: program has no main")
    (fun () -> ignore (M.Interp.run_program b.P.prog b.P.config))

(* The writer leaves a non-zero pattern in nearly every word of the
   pages it maps: whole pages of a global array and of heap blocks, deep
   stack frames, and under cpi a global array of code pointers (whole
   pages of safe-store entries). *)
let stale_writer_src =
  {|int f(int x) { return x + 1; }
    int g[16384];
    int (*gf[16384])(int);
    int deep(int n) {
      int buf[1000];
      int i;
      for (i = 0; i < 1000; i = i + 1) { buf[i] = n * 1000 + i + 1; }
      if (n > 0) { return deep(n - 1) + buf[n]; }
      return buf[0];
    }
    int main() {
      int i; int k; int *p;
      for (i = 0; i < 16384; i = i + 1) { g[i] = i * 7 + 3; gf[i] = f; }
      for (k = 0; k < 3; k = k + 1) {
        p = (int*) malloc(4095);
        for (i = 0; i < 4095; i = i + 1) { p[i] = i + 5; }
      }
      checksum(deep(12));
      return 0;
    }|}

(* The reader reads only memory it never wrote: a fresh heap block,
   three pages of uninitialised locals, and unwritten global slots and
   code pointers. Every such word reads 0 on a fresh machine. Which of
   the writer's pages the reader's pages reuse is up to the pool, so
   both programs cover many pages. *)
let stale_reader_src =
  {|int f(int x) { return x + 1; }
    int h[4096];
    int (*hf[8192])(int) = { f };
    int peek(int n) {
      int loc[1024];
      int s = 0; int i;
      for (i = 0; i < 1024; i = i + 1) { s = s + loc[i]; }
      if (n > 0) { s = s + peek(n - 1); }
      return s;
    }
    int main() {
      int *q = (int*) malloc(1024);
      int s = 0; int i;
      h[0] = 1;
      hf[4000] = f; hf[8000] = f;
      for (i = 0; i < 1024; i = i + 1) { s = s + q[i]; }
      for (i = 1; i < 4096; i = i + 1) { s = s + h[i]; }
      for (i = 1; i < 8192; i = i + 1) {
        if (i != 4000 && i != 8000) { s = s + (int) hf[i]; }
      }
      s = s + peek(11);
      checksum(s);
      print_int(s);
      return 0;
    }|}

let test_no_stale_memory () =
  List.iter
    (fun (protection, store_impl) ->
      let what =
        P.protection_name protection ^ "/" ^ M.Safestore.impl_name store_impl
      in
      let run src =
        let b = P.build ~store_impl protection (Helpers.compile src) in
        M.Interp.run_program b.P.prog b.P.config
      in
      Alcotest.(check int) (what ^ ": writer exits") 0
        (exit_code (run stale_writer_src));
      let after = run stale_reader_src in
      let fresh = Domain.join (Domain.spawn (fun () -> run stale_reader_src)) in
      Alcotest.(check int) (what ^ ": unwritten memory reads 0") 0
        fresh.M.Interp.checksum;
      Alcotest.(check int) (what ^ ": same checksum as a fresh domain")
        fresh.M.Interp.checksum after.M.Interp.checksum;
      Alcotest.(check bool) (what ^ ": same result as a fresh domain") true
        (after = fresh))
    [ (P.Vanilla, M.Safestore.Simple_array);
      (P.Cpi, M.Safestore.Simple_array);
      (P.Cpi, M.Safestore.Two_level) ]

(* ---- concurrency: the deterministic multithreaded machine ---- *)

(** Like [Helpers.run] but with a scheduler seed. *)
let runc ?(protection = P.Vanilla) ?(sched_seed = 0) ?(fuel = 5_000_000) src =
  let built = P.build protection (Helpers.compile src) in
  M.Interp.run_program ~sched_seed ~fuel built.P.prog built.P.config

let check_crash ?protection ?sched_seed src sub name =
  let r = runc ?protection ?sched_seed src in
  match r.M.Interp.outcome with
  | M.Trap.Crash m when contains m sub -> ()
  | o -> Alcotest.failf "%s: got %s" name (M.Trap.outcome_to_string o)

(* Two workers bump a shared counter 50 times each. With the mutex the
   final count is exactly 100 under every protection and seed; without it
   the lockset detector must report the race. *)
let counter_src ~locked =
  let lock, unlock =
    if locked then "mutex_lock(&lk);", "mutex_unlock(&lk);" else "", ""
  in
  Printf.sprintf
    {|int n; int lk;
      int worker(int w) {
        int i;
        for (i = 0; i < 50; i = i + 1) { %s n = n + 1; %s }
        return w;
      }
      int main() {
        int t1 = thread_spawn(worker, 11);
        int t2 = thread_spawn(worker, 21);
        int a = thread_join(t1);
        int b = thread_join(t2);
        print_int(n);
        return a + b + n;
      }|}
    lock unlock

let test_locked_counter () =
  List.iter
    (fun protection ->
       List.iter
         (fun sched_seed ->
            let r = runc ~protection ~sched_seed (counter_src ~locked:true) in
            Alcotest.(check int) "exit 132" 132 (exit_code r);
            Alcotest.(check string) "count" "100\n" r.M.Interp.output;
            Alcotest.(check int) "no races" 0 r.M.Interp.races;
            Alcotest.(check int) "three threads" 3 r.M.Interp.threads;
            Alcotest.(check bool) "preempted" true
              (r.M.Interp.ctx_switches > 0))
         [ 0; 1; 7 ])
    [ P.Vanilla; P.Cpi ]

let test_unlocked_counter_races () =
  let r = runc (counter_src ~locked:false) in
  (match r.M.Interp.outcome with
   | M.Trap.Exit _ -> ()
   | o -> Alcotest.failf "racy run: %s" (M.Trap.outcome_to_string o));
  Alcotest.(check bool) "race reported" true (r.M.Interp.races > 0);
  Alcotest.(check bool) "report describes shared data" true
    (List.exists (fun d -> contains (M.Race.describe d) "shared-data")
       r.M.Interp.race_details)

let test_atomic_add () =
  let src =
    {|int n;
      int worker(int w) {
        int i;
        for (i = 0; i < 50; i = i + 1) { atomic_add(&n, 1); }
        return w;
      }
      int main() {
        int t1 = thread_spawn(worker, 1);
        int t2 = thread_spawn(worker, 2);
        int a = thread_join(t1) + thread_join(t2);
        return n + a;
      }|}
  in
  List.iter
    (fun sched_seed ->
       let r = runc ~sched_seed src in
       Alcotest.(check int) "exact count" 103 (exit_code r);
       Alcotest.(check int) "atomics race-free" 0 r.M.Interp.races)
    [ 0; 3 ]

(* Same seed: byte-identical results. Different seed: same final state
   for a race-free program, but a different interleaving (cycles). *)
let test_sched_determinism () =
  let run seed = runc ~sched_seed:seed (counter_src ~locked:true) in
  let a = run 5 and b = run 5 and c = run 6 in
  Alcotest.(check bool) "same seed identical" true (a = b);
  Alcotest.(check int) "exit stable across seeds" (exit_code a) (exit_code c);
  Alcotest.(check string) "output stable across seeds"
    a.M.Interp.output c.M.Interp.output

let test_deadlock () =
  check_crash
    {|int lk;
      int worker(int w) { mutex_lock(&lk); return w; }
      int main() {
        mutex_lock(&lk);
        int t = thread_spawn(worker, 1);
        return thread_join(t);
      }|}
    "deadlock" "join vs held mutex"

let test_mutex_misuse () =
  check_crash
    "int lk; int main() { mutex_lock(&lk); mutex_lock(&lk); return 0; }"
    "recursive" "recursive lock";
  check_crash "int lk; int main() { mutex_unlock(&lk); return 0; }"
    "not the owner" "unlock unheld"

let test_thread_errors () =
  check_crash "int main() { return thread_join(3); }"
    "invalid thread id" "join of unspawned id";
  check_crash
    {|int worker(int w) {
        int i;
        for (i = 0; i < 1000; i = i + 1) { }
        return w;
      }
      int main() {
        int i;
        for (i = 0; i < 8; i = i + 1) { thread_spawn(worker, i); }
        return 0;
      }|}
    "thread limit" "spawn past the table"

(* thread_spawn through a function-pointer variable: under CPI the target
   must carry code metadata, so a spawned-to pointer is covered by the
   same integrity guarantee as a call. *)
let test_spawn_via_fptr () =
  let src =
    {|int f(int x) { return x + 41; }
      int (*fp)(int) = f;
      int main() {
        int t = thread_spawn(fp, 1);
        return thread_join(t);
      }|}
  in
  Alcotest.(check int) "vanilla" 42 (exit_code (runc src));
  Alcotest.(check int) "cpi" 42 (exit_code (runc ~protection:P.Cpi src))

(* The concurrent webstack workload is race-free and commutative by
   construction: every seed and protection must agree on checksum and
   output, and its thread count and preemptions must show up in the
   result. *)
let test_concurrent_workload () =
  let module W = Levee_workloads in
  let w = W.Webstack.concurrent ~threads:4 in
  let prog = W.Workload.compile w in
  let run protection sched_seed =
    let b = P.build protection prog in
    M.Interp.run_program ~sched_seed ~fuel:w.W.Workload.fuel
      b.P.prog b.P.config
  in
  let r0 = run P.Cpi 0 in
  Alcotest.(check int) "exit 0" 0 (exit_code r0);
  Alcotest.(check int) "threads" 5 r0.M.Interp.threads;
  Alcotest.(check bool) "preempted" true (r0.M.Interp.ctx_switches > 0);
  Alcotest.(check int) "race-free" 0 r0.M.Interp.races;
  let r1 = run P.Cpi 9 and rv = run P.Vanilla 0 in
  Alcotest.(check int) "checksum seed-independent"
    r0.M.Interp.checksum r1.M.Interp.checksum;
  Alcotest.(check string) "output seed-independent"
    r0.M.Interp.output r1.M.Interp.output;
  Alcotest.(check int) "checksum protection-independent"
    r0.M.Interp.checksum rv.M.Interp.checksum

(* ---------- Step boundaries ----------

   The machine makes the fuel, fault and preemption tests once per
   straight-line stretch of a block, and cuts a stretch short where one
   of them falls due. These sweeps put a boundary on every step of small
   programs and check that none is skipped: every fuel cap stops on
   exactly that step, a stall fault at any step costs exactly its
   cycles, and a zero-cycle stall on every step (which cuts every
   stretch to one instruction) changes nothing at all. *)

module B = Levee_ir.Builder
module I = Levee_ir.Instr
module Ty = Levee_ir.Ty

let sweep_src =
  {|int classify(int x) { return x; }
    int sq(int x) { return x * x; }
    int neg(int x) { return 0 - x; }
    int (*ops[2])(int);
    struct cell { int v; int (*f)(int); };
    int main() {
      int i;
      int acc = 0;
      struct cell c;
      ops[0] = sq;
      ops[1] = neg;
      c.f = sq;
      for (i = 0; i < 7; i = i + 1) {
        c.v = classify(i % 5);
        acc = acc + c.v * 3;
        checksum(acc);
        acc = acc + ops[i % 2](i) + (acc % 7);
        acc = acc + c.f(i);
      }
      print_int(acc);
      return 0;
    }|}

(* [classify] again, as a dense switch over 0..2 falling through to a
   sparse one (MiniC has no switch statement). *)
let switch_classify () =
  let b =
    B.create ~name:"classify" ~params:[ ("x", Ty.Int) ] ~ret_ty:Ty.Int
  in
  let x = I.Reg (B.param_reg b 0) in
  let ret_of ops =
    let blk = B.new_block b in
    B.position_at b blk;
    B.set_term b (I.Ret (Some (I.Reg (ops ()))));
    blk
  in
  let k10 = ret_of (fun () -> B.bin b I.Add x (I.Imm 10)) in
  let k20 = ret_of (fun () -> B.bin b I.Mul x (I.Imm 7)) in
  let k30 = ret_of (fun () -> B.bin b I.Sub (I.Imm 30) x) in
  let dflt = ret_of (fun () -> B.bin b I.Xor x (I.Imm 5)) in
  let sparse = B.new_block b in
  B.position_at b sparse;
  B.set_term b (I.Switch (x, [ (4, k30); (1_000_000, k10) ], dflt));
  B.position_at b 0;
  B.set_term b (I.Switch (x, [ (0, k10); (1, k20); (2, k30) ], sparse));
  B.finish b

let sweep_prog () =
  let prog = compile sweep_src in
  Hashtbl.replace prog.Levee_ir.Prog.funcs "classify" (switch_classify ());
  prog

(* ---------- Switch dispatch ----------

   A [main] that switches on one input word: case [i] of the list
   returns 100 + i and the default returns 99, so the exit code names the
   binding taken. Case values within 4 × cases + 8 of each other dispatch
   through a dense table, others through a hashed one; both must act
   like [List.assoc_opt] over the case list. *)
let switch_exit cases x =
  let b = B.create ~name:"main" ~params:[] ~ret_ty:Ty.Int in
  let v = Option.get (B.intrin b ~dst_ty:Ty.Int I.I_read_int []) in
  let ret k =
    let blk = B.new_block b in
    B.position_at b blk;
    B.set_term b (I.Ret (Some (I.Imm k)));
    blk
  in
  let dflt = ret 99 in
  let cases = List.mapi (fun i c -> (c, ret (100 + i))) cases in
  B.position_at b 0;
  B.set_term b (I.Switch (I.Reg v, cases, dflt));
  let prog = Levee_ir.Prog.create () in
  Levee_ir.Prog.add_func prog (B.finish b);
  match
    (M.Interp.run_program ~input:[| x |] prog M.Config.vanilla).M.Interp.outcome
  with
  | M.Trap.Exit n -> n
  | o -> Alcotest.failf "switch on %d: %s" x (M.Trap.outcome_to_string o)

let check_switch what cases pairs =
  List.iter
    (fun (x, want) ->
      Alcotest.(check int) (Printf.sprintf "%s, value %d" what x) want
        (switch_exit cases x))
    pairs

let test_switch_first_binding () =
  check_switch "dense duplicate" [ 5; 6; 5; 7 ]
    [ (5, 100); (6, 101); (7, 103); (8, 99) ];
  check_switch "sparse duplicate" [ 10; 1_000_000; 10 ]
    [ (10, 100); (1_000_000, 101); (11, 99) ]

let test_switch_dense_edges () =
  check_switch "dense 0..2" [ 0; 1; 2 ]
    [ (-1, 99); (0, 100); (2, 102); (3, 99); (min_int, 99); (max_int, 99) ];
  check_switch "dense with a gap" [ 3; 5 ]
    [ (2, 99); (3, 100); (4, 99); (5, 101); (6, 99) ]

let test_switch_negative () =
  check_switch "dense negative" [ -3; -1; 0 ]
    [ (-4, 99); (-3, 100); (-2, 99); (-1, 101); (0, 102); (1, 99);
      (max_int, 99); (min_int, 99) ];
  check_switch "sparse negative" [ -1_000_000; 7 ]
    [ (-1_000_000, 100); (7, 101); (-999_999, 99); (-7, 99) ]

let test_switch_empty () =
  check_switch "no cases" [] [ (0, 99); (-1, 99); (42, 99) ]

(* Two cases whose span exceeds [max_int]: the span computation wraps, so
   the switch must not take it for a small dense range. *)
let test_switch_extreme () =
  check_switch "min_int and max_int" [ min_int; max_int ]
    [ (min_int, 100); (max_int, 101); (0, 99); (-1, 99) ]

(* ---------- Register range ----------

   The compiled code indexes register files unchecked, so compiling a
   function refuses any register outside [0, nregs). The program is a
   hand-built [main] with [nregs = 1] that computes [dst = 40 + 2] and
   returns [src]. *)
let reg_main ~dst ~src =
  let fn =
    { Levee_ir.Prog.fname = "main"; params = []; ret_ty = Ty.Int;
      blocks =
        [| { Levee_ir.Prog.bid = 0;
             instrs =
               [| I.Bin { dst; op = I.Add; l = I.Imm 40; r = I.Imm 2 } |];
             term = I.Ret (Some (I.Reg src)) } |];
      nregs = 1; cookie = false; address_taken = false }
  in
  let prog = Levee_ir.Prog.create () in
  Levee_ir.Prog.add_func prog fn;
  prog

let test_register_range () =
  Alcotest.(check int) "r0 in range" 42
    (exit_code
       (M.Interp.run_program (reg_main ~dst:0 ~src:0) M.Config.vanilla));
  List.iter
    (fun r ->
      List.iter
        (fun (what, dst, src) ->
          match M.Interp.run_program (reg_main ~dst ~src) M.Config.vanilla with
          | exception Invalid_argument msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s r%d: %S names it and main" what r msg) true
              (contains msg (Printf.sprintf "r%d " r) && contains msg "main")
          | res ->
            Alcotest.failf "%s r%d: ran to %s" what r
              (M.Trap.outcome_to_string res.M.Interp.outcome))
        [ ("destination", r, 0); ("source", 0, r) ])
    [ 1; 3; -5; 100_000 ]

(* ---------- Block targets and names ----------

   Compiling a function also refuses a jump to a block it does not have
   and a name the image does not define, naming the function and the
   target. Each program is a one-block [main] that [Verify] rejects: it
   jumps to b5, branches to b-1, switches to b7, reads a global that does
   not exist or calls a function that does not exist. *)
let one_block_main instrs term =
  let fn =
    { Levee_ir.Prog.fname = "main"; params = []; ret_ty = Ty.Int;
      blocks = [| { Levee_ir.Prog.bid = 0; instrs; term } |];
      nregs = 1; cookie = false; address_taken = false }
  in
  let prog = Levee_ir.Prog.create () in
  Levee_ir.Prog.add_func prog fn;
  prog

let test_unknown_targets () =
  let ret0 = I.Ret (Some (I.Imm 0)) in
  let read_global =
    I.Bin { dst = 0; op = I.Add; l = I.Glob "no_such_global"; r = I.Imm 0 }
  in
  let call =
    I.Call { dst = None; callee = I.Direct "no_such_fn"; args = [];
             fty = Ty.Fn ([], Ty.Int); cfi_checked = false; cfi_set = None }
  in
  List.iter
    (fun (what, target, instrs, term) ->
      let prog = one_block_main instrs term in
      Alcotest.(check bool) (what ^ ": invalid IR") true
        (Result.is_error (Levee_ir.Verify.program_result prog));
      match M.Interp.run_program prog M.Config.vanilla with
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s and main" what msg target) true
          (contains msg (target ^ " ") && contains msg "main")
      | res ->
        Alcotest.failf "%s: ran to %s" what
          (M.Trap.outcome_to_string res.M.Interp.outcome))
    [ ("jmp", "b5", [||], I.Jmp 5);
      ("br", "b-1", [||], I.Br (I.Imm 1, -1, 0));
      ("switch", "b7", [||], I.Switch (I.Imm 3, [ (3, 7) ], 0));
      ("global", "no_such_global", [| read_global |], ret0);
      ("callee", "no_such_fn", [| call |], ret0) ]

let two_thread_src =
  {|int n; int lk;
    int worker(int w) {
      int i;
      for (i = 0; i < 12; i = i + 1) {
        mutex_lock(&lk); n = n + w; mutex_unlock(&lk);
      }
      return w;
    }
    int main() {
      int t = thread_spawn(worker, 3);
      int i;
      for (i = 0; i < 12; i = i + 1) {
        mutex_lock(&lk); n = n + 1; mutex_unlock(&lk);
      }
      int a = thread_join(t);
      print_int(n);
      return a + n;
    }|}

let check_boundaries what prog protection sched_seed =
  let built = P.build protection prog in
  let image = M.Loader.load built.P.prog built.P.config in
  let run ?(fuel = 1_000_000) ?faults () =
    M.Interp.run ~fuel ?faults ~sched_seed image
  in
  let full = run () in
  (match full.M.Interp.outcome with
   | M.Trap.Exit _ -> ()
   | o -> Alcotest.failf "%s: %s" what (M.Trap.outcome_to_string o));
  let n = full.M.Interp.instrs in
  Alcotest.(check bool) (what ^ ": a few hundred steps") true
    (n > 200 && n < 5000);
  for f = 0 to n - 1 do
    let r = run ~fuel:f () in
    if r.M.Interp.outcome <> M.Trap.Fuel_exhausted || r.M.Interp.instrs <> f
    then
      Alcotest.failf "%s: fuel %d ended %s after %d steps" what f
        (M.Trap.outcome_to_string r.M.Interp.outcome) r.M.Interp.instrs
  done;
  for s = 0 to n - 1 do
    let r = run ~faults:[ (s, M.Interp.Stall { cycles = 1000 }) ] () in
    if r.M.Interp.outcome <> full.M.Interp.outcome
       || r.M.Interp.instrs <> n
       || r.M.Interp.output <> full.M.Interp.output
       || r.M.Interp.checksum <> full.M.Interp.checksum
       || r.M.Interp.cycles <> full.M.Interp.cycles + 1000
    then
      Alcotest.failf "%s: stall at step %d: %s, %d steps, %d cycles (want %d)"
        what s (M.Trap.outcome_to_string r.M.Interp.outcome)
        r.M.Interp.instrs r.M.Interp.cycles (full.M.Interp.cycles + 1000)
  done;
  let stepped =
    run ~faults:(List.init n (fun s -> (s, M.Interp.Stall { cycles = 0 }))) ()
  in
  Alcotest.(check bool) (what ^ ": single-stepped run identical") true
    (stepped = full);
  full

let test_boundaries_sequential () =
  let prog = sweep_prog () in
  List.iter
    (fun p -> ignore (check_boundaries (P.protection_name p) prog p 0))
    [ P.Vanilla; P.Cpi ]

let test_boundaries_threads () =
  let prog = compile two_thread_src in
  List.iter
    (fun seed ->
      let what = Printf.sprintf "threads seed %d" seed in
      let full = check_boundaries what prog P.Vanilla seed in
      Alcotest.(check bool) (what ^ ": preempted") true
        (full.M.Interp.ctx_switches > 0))
    [ 0; 5 ]

let () =
  Alcotest.run "interp"
    [ ("traps",
       [ t "division by zero" test_div_by_zero;
         t "null dereference" test_null_deref;
         t "fuel exhaustion" test_fuel;
         t "stack overflow" test_stack_overflow;
         t "heap exhaustion" test_oom;
         t "double free" test_double_free_traps ]);
      ("memory safety semantics",
       [ t "use-after-free under CPI" test_use_after_free_cpi;
         t "non-sensitive OOB ignored by CPI" test_oob_read_is_silent_vanilla;
         t "debug mode mirrors" test_debug_mode_mirror ]);
      ("cost model",
       [ t "monotone" test_costs_monotone;
         t "SFI isolation cost" test_sfi_isolation_cost;
         t "store organisations" test_store_impl_costs;
         t "memory accounting" test_memory_accounting ]);
      ("io", [ t "output capture" test_output_capture ]);
      ("runs",
       [ t "program without main" test_no_main;
         t "out-of-range registers refused" test_register_range;
         t "unknown blocks and names refused" test_unknown_targets;
         t "no memory from an earlier run" test_no_stale_memory ]);
      ("threads",
       [ t "locked counter" test_locked_counter;
         t "unlocked counter races" test_unlocked_counter_races;
         t "atomic add" test_atomic_add;
         t "scheduler determinism" test_sched_determinism;
         t "deadlock detection" test_deadlock;
         t "mutex misuse" test_mutex_misuse;
         t "thread errors" test_thread_errors;
         t "spawn via function pointer" test_spawn_via_fptr;
         t "concurrent workload" test_concurrent_workload ]);
      ("step boundaries",
       [ t "fuel, stall and single-step sweeps" test_boundaries_sequential;
         t "the same under preemption" test_boundaries_threads ]);
      ("switch",
       [ t "first binding wins" test_switch_first_binding;
         t "dense range edges" test_switch_dense_edges;
         t "negative case values" test_switch_negative;
         t "no cases takes the default" test_switch_empty;
         t "case values spanning more than max_int" test_switch_extreme ]) ]
