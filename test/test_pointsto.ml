(* Unit tests for the Andersen points-to analysis and the sensitivity
   refinement built on it: constraint facts on small programs, positive
   and negative demotion examples, and a differential soundness check
   (refined builds behave exactly like unrefined ones). *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog
module An = Levee_analysis
module Pt = Levee_analysis.Pointsto
module P = Levee_core.Pipeline
module M = Levee_machine

let t name f = Alcotest.test_case name `Quick f

let analyze src =
  let prog = Levee_minic.Lower.compile src in
  (prog, Pt.analyze prog)

(* ---------- constraint facts ---------- *)

let test_address_constants () =
  let _, pt =
    analyze {|int g; int f(int x) { return x; } int main() { return 0; }|}
  in
  Alcotest.(check (list string)) "global address" [ "global:g" ]
    (List.map Pt.obj_to_string (Pt.points_to pt ~fname:"main" (I.Glob "g")));
  Alcotest.(check bool) "function constant is code" true
    (Pt.value_may_be_code pt ~fname:"main" (I.Fun "f"));
  Alcotest.(check bool) "global address is not code" false
    (Pt.value_may_be_code pt ~fname:"main" (I.Glob "g"));
  Alcotest.(check bool) "null is not code" false
    (Pt.value_may_be_code pt ~fname:"main" I.Nullp);
  Alcotest.(check bool) "immediate is not code" false
    (Pt.value_may_be_code pt ~fname:"main" (I.Imm 42))

let test_reaches_code_globals () =
  let _, pt =
    analyze
      {|int f(int x) { return x; }
        int (*table[2])(int) = { f, f };
        int nums[4];
        int main() { return table[0](1) + nums[0]; }|}
  in
  Alcotest.(check bool) "fn-ptr table reaches code" true
    (Pt.reaches_code pt (Pt.O_global "table"));
  Alcotest.(check bool) "int array does not" false
    (Pt.reaches_code pt (Pt.O_global "nums"));
  Alcotest.(check bool) "table address may reach code" true
    (Pt.addr_may_reach_code pt ~fname:"main" (I.Glob "table"));
  Alcotest.(check bool) "unknown objects answer true" true
    (Pt.reaches_code pt Pt.O_unknown)

let test_store_propagates () =
  (* storing a function pointer into a global cell makes that cell reach
     code, and a load from it yields a may-be-code value *)
  let prog, pt =
    analyze
      {|int f(int x) { return x + 1; }
        int (*slot)(int);
        int main() { slot = f; return slot(2); }|}
  in
  Alcotest.(check bool) "slot reaches code after store" true
    (Pt.reaches_code pt (Pt.O_global "slot"));
  (* find the register loaded from slot in main and check its value *)
  let fn = Prog.find_func prog "main" in
  let found = ref false in
  Prog.iter_instrs fn (fun i ->
      match i with
      | I.Load { dst; addr = I.Glob "slot"; _ } ->
        found := true;
        Alcotest.(check bool) "loaded value may be code" true
          (Pt.value_may_be_code pt ~fname:"main" (I.Reg dst))
      | _ -> ());
  Alcotest.(check bool) "program loads slot" true !found

let test_interprocedural_flow () =
  (* a function pointer passed through a direct call and stored via the
     callee's parameter must taint the caller's object *)
  let _, pt =
    analyze
      {|int f(int x) { return x; }
        int (*cell)(int);
        void put(int (*h)(int)) { cell = h; }
        int main() { put(f); return cell(3); }|}
  in
  Alcotest.(check bool) "callee store taints caller-visible cell" true
    (Pt.reaches_code pt (Pt.O_global "cell"))

let test_malloc_site_objects () =
  let prog, pt =
    analyze
      {|struct box { int v; };
        int main() {
          struct box *b = (struct box*) malloc(sizeof(struct box));
          b->v = 7;
          return b->v;
        }|}
  in
  let fn = Prog.find_func prog "main" in
  let saw_malloc_obj = ref false in
  Prog.iter_instrs fn (fun i ->
      match i with
      | I.Store { addr = I.Reg r; ty = Ty.Ptr _; _ }
      | I.Load { addr = I.Reg r; ty = Ty.Ptr _; _ } ->
        List.iter
          (function Pt.O_malloc _ -> saw_malloc_obj := true | _ -> ())
          (Pt.points_to pt ~fname:"main" (I.Reg r))
      | _ -> ());
  (* the alloca holding b points somewhere; the loaded b points to the
     malloc site — at least one queried register must resolve to it *)
  let any_reg_hits_malloc = ref false in
  for r = 0 to fn.Prog.nregs - 1 do
    List.iter
      (function Pt.O_malloc _ -> any_reg_hits_malloc := true | _ -> ())
      (Pt.points_to pt ~fname:"main" (I.Reg r))
  done;
  Alcotest.(check bool) "some register points to the malloc site" true
    !any_reg_hits_malloc

(* ---------- refinement: what demotes and what must not ---------- *)

let demoted src =
  let prog = Levee_minic.Lower.compile src in
  let b = P.build P.Cpi prog in
  b.P.stats.Levee_core.Stats.mem_ops_demoted

(* void* handles that are only stored, compared and freed: provably
   data-only, the paradigm demotion case (examples/minic/opaque.c) *)
let opaque_src =
  {|void *cache0; void *cache1;
    int hit; int miss;
    int lookup(void *h) {
      if (cache0 == h) { return 1; }
      if (cache1 == h) { return 1; }
      return 0;
    }
    int main() {
      void *a = malloc(4);
      void *b = malloc(4);
      cache0 = a;
      cache1 = b;
      hit = lookup(a);
      miss = lookup(b);
      free(a);
      free(b);
      print_int(hit + miss + 2);
      return 0;
    }|}

let test_refine_demotes_opaque_handles () =
  Alcotest.(check bool) "data-only void* accesses demoted" true
    (demoted opaque_src > 0)

let test_refine_keeps_function_pointers () =
  (* a dispatched function pointer reaches code: zero demotion allowed *)
  let n =
    demoted
      {|int inc(int x) { return x + 1; }
        int (*cb)(int);
        int main() { cb = inc; return cb(1) - 2; }|}
  in
  Alcotest.(check int) "fn-ptr cell never demoted" 0 n

let test_refine_keeps_laundered_void () =
  (* a void* that transports a code pointer must stay instrumented *)
  let n =
    demoted
      {|int inc(int x) { return x + 1; }
        void *sneak;
        int main() {
          sneak = (int*) 0;
          sneak = (char*) inc;
          int (*g)(int) = (int (*)(int)) sneak;
          return g(1) - 2;
        }|}
  in
  Alcotest.(check int) "code-carrying void* never demoted" 0 n

(* ---------- soundness: refinement is invisible to execution ---------- *)

let run_build b = M.Interp.run_program ~fuel:2_000_000 b.P.prog b.P.config

let same_behaviour src prot =
  let prog = Levee_minic.Lower.compile src in
  let on = run_build (P.build ~refine:true prot prog) in
  let off = run_build (P.build ~refine:false prot prog) in
  on.M.Interp.outcome = off.M.Interp.outcome
  && on.M.Interp.checksum = off.M.Interp.checksum
  && on.M.Interp.output = off.M.Interp.output

let test_refine_soundness () =
  List.iter
    (fun src ->
      Alcotest.(check bool) "cpi refine on/off identical" true
        (same_behaviour src P.Cpi);
      Alcotest.(check bool) "cps refine on/off identical" true
        (same_behaviour src P.Cps))
    [ opaque_src;
      {|int inc(int x) { return x + 1; }
        int (*cb)(int);
        int main() { cb = inc; print_int(cb(1)); return 0; }|};
      {|struct node { int v; void *next; };
        struct node *head;
        int main() {
          struct node *n = (struct node*) malloc(sizeof(struct node));
          n->v = 5; n->next = (void*) head; head = n;
          print_int(head->v);
          return 0;
        }|} ]

(* ---------- one solve shared between builds ---------- *)

let zoo () =
  Levee_minic.Lower.compile ~name:"fptr_zoo.c"
    (In_channel.with_open_bin "../examples/minic/fptr_zoo.c"
       In_channel.input_all)

(* The solve must not write its input: builds of one program share it,
   possibly from several domains. Clearing the flags first makes the
   check bite: a solver that recomputed them would set some. *)
let test_analyze_leaves_input () =
  let prog = zoo () in
  let before = Levee_ir.Printer.program prog in
  Prog.iter_funcs prog (fun fn -> fn.Prog.address_taken <- false);
  ignore (Pt.analyze prog);
  Alcotest.(check string) "printed IR" before (Levee_ir.Printer.program prog);
  Prog.iter_funcs prog (fun fn ->
      Alcotest.(check bool) (fn.Prog.fname ^ " address_taken") false
        fn.Prog.address_taken)

let test_solve_of_another_program () =
  let prog = zoo () and other = zoo () in
  let pt = Pt.analyze other in
  List.iter
    (fun prot ->
      Alcotest.check_raises (P.protection_name prot)
        (Invalid_argument "Pipeline.build: points-to solve of another program")
        (fun () -> ignore (P.build ~points_to:(fun () -> pt) prot prog)))
    [ P.Cps; P.Cpi; P.Cpi_debug; P.Cpi_crypt; P.Cfi_type ]

(* Only the protections that read the solve ask for it, and each at most
   once; without the refinement, cpi and cpi-crypt never do. *)
let test_solve_asked_for () =
  let prog = zoo () in
  let pt = Pt.analyze prog in
  let asks ?refine prot =
    let n = ref 0 in
    ignore
      (P.build ?refine ~points_to:(fun () -> incr n; pt) prot prog);
    !n
  in
  Alcotest.(check (list (pair string int))) "solves asked for"
    [ ("vanilla", 0); ("dep+aslr+cookies", 0); ("cookies", 0);
      ("safestack", 0); ("cfi", 0); ("cps", 1); ("cpi", 1);
      ("cpi-debug", 1); ("softbound", 0); ("cfi-type", 1);
      ("cpi-crypt", 1) ]
    (List.map (fun p -> (P.protection_name p, asks p)) P.all_protections);
  Alcotest.(check (list int)) "without refinement" [ 1; 0; 0; 0 ]
    (List.map (asks ~refine:false) [ P.Cps; P.Cpi; P.Cpi_debug; P.Cpi_crypt ])

(* ---------- golden solution digest ----------

   One MD5 over the solution for the 41 bundled workloads and every
   examples/minic program: each register's points-to list in the order
   [points_to] returns it (which pins object numbering), whether each
   listed object reaches code, and the callee targets of every indirect
   call. A change to the solver must leave it unchanged.
   LEVEE_GOLDEN_DUMP=1 prints the fresh digest instead of checking it. *)

module W = Levee_workloads

let golden_solution = "2943fd553660700af41bc6939041f596"

let solution_corpus () =
  let bundled =
    W.Spec.all @ W.Phoronix.all @ W.Webstack.all @ W.Base_system.all
  in
  let examples =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".c")
         (Array.to_list (Sys.readdir "../examples/minic")))
  in
  Alcotest.(check int) "bundled workloads" 41 (List.length bundled);
  List.map
    (fun (w : W.Workload.t) ->
      (w.W.Workload.name, Levee_minic.Lower.compile ~name:w.W.Workload.name
                            w.W.Workload.source))
    bundled
  @ List.map
      (fun f ->
        ( f,
          Levee_minic.Lower.compile ~name:f
            (In_channel.with_open_bin ("../examples/minic/" ^ f)
               In_channel.input_all) ))
      examples

let add_solution buf name (prog : Prog.t) =
  let pt = Pt.analyze prog in
  Printf.bprintf buf "program %s\n" name;
  Prog.iter_funcs prog (fun fn ->
      let fname = fn.Prog.fname in
      for r = 0 to fn.Prog.nregs - 1 do
        match Pt.points_to pt ~fname (I.Reg r) with
        | [] -> ()
        | objs ->
          Printf.bprintf buf "%s r%d:" fname r;
          List.iter
            (fun o ->
              Printf.bprintf buf " %s%s" (Pt.obj_to_string o)
                (if Pt.reaches_code pt o then "!" else ""))
            objs;
          Buffer.add_char buf '\n'
      done;
      Prog.iter_instrs fn (function
        | I.Call { callee = I.Indirect o; _ } ->
          Printf.bprintf buf "icall %s %s\n" fname
            (match Pt.callee_targets pt ~fname o with
             | None -> "-"
             | Some names -> "[" ^ String.concat "," names ^ "]")
        | _ -> ()))

let test_golden_solution () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter (fun (name, prog) -> add_solution buf name prog)
    (solution_corpus ());
  let actual = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  if Sys.getenv_opt "LEVEE_GOLDEN_DUMP" <> None then
    Printf.printf "(* points-to solution digest *)\n%S\n" actual
  else Alcotest.(check string) "points-to solution digest" golden_solution actual

let () =
  Alcotest.run "pointsto"
    [ ("facts",
       [ t "address constants" test_address_constants;
         t "reaches_code on globals" test_reaches_code_globals;
         t "store propagates code" test_store_propagates;
         t "interprocedural via params" test_interprocedural_flow;
         t "malloc site objects" test_malloc_site_objects ]);
      ("refinement",
       [ t "demotes opaque handles" test_refine_demotes_opaque_handles;
         t "keeps function pointers" test_refine_keeps_function_pointers;
         t "keeps laundered void*" test_refine_keeps_laundered_void ]);
      ("soundness",
       [ t "refine on/off behaviourally identical" test_refine_soundness ]);
      ("sharing",
       [ t "analyze leaves its input unchanged" test_analyze_leaves_input;
         t "solve of another program raises" test_solve_of_another_program;
         t "only readers ask for the solve" test_solve_asked_for ]);
      ("golden", [ t "solution digest" test_golden_solution ]) ]
