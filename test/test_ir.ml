(* Unit tests for the IR substrate: types, layout arithmetic, builder,
   printer, verifier, and builds and their knobs. *)

module Ty = Levee_ir.Ty
module I = Levee_ir.Instr
module Prog = Levee_ir.Prog
module B = Levee_ir.Builder
module V = Levee_ir.Verify

let tenv_with_node () =
  let tenv = Ty.create_env () in
  Ty.define_struct tenv "node"
    [ ("value", Ty.Int); ("next", Ty.Ptr (Ty.Struct "node"));
      ("handler", Ty.Ptr (Ty.Fn ([ Ty.Int ], Ty.Int))) ];
  tenv

let test_sizes () =
  let tenv = tenv_with_node () in
  Alcotest.(check int) "int" 1 (Ty.size_of tenv Ty.Int);
  Alcotest.(check int) "char" 1 (Ty.size_of tenv Ty.Char);
  Alcotest.(check int) "ptr" 1 (Ty.size_of tenv (Ty.Ptr Ty.Void));
  Alcotest.(check int) "array" 12 (Ty.size_of tenv (Ty.Arr (Ty.Int, 12)));
  Alcotest.(check int) "2d array" 24 (Ty.size_of tenv (Ty.Arr (Ty.Arr (Ty.Char, 8), 3)));
  Alcotest.(check int) "struct" 3 (Ty.size_of tenv (Ty.Struct "node"));
  Alcotest.(check int) "array of struct" 15
    (Ty.size_of tenv (Ty.Arr (Ty.Struct "node", 5)))

let test_field_offsets () =
  let tenv = tenv_with_node () in
  let off, ty = Ty.field_offset tenv "node" "value" in
  Alcotest.(check int) "value offset" 0 off;
  Alcotest.(check bool) "value ty" true (Ty.equal ty Ty.Int);
  let off, _ = Ty.field_offset tenv "node" "next" in
  Alcotest.(check int) "next offset" 1 off;
  let off, ty = Ty.field_offset tenv "node" "handler" in
  Alcotest.(check int) "handler offset" 2 off;
  Alcotest.(check bool) "handler is code ptr" true (Ty.is_code_pointer ty)

let test_type_predicates () =
  Alcotest.(check bool) "void* universal" true (Ty.is_universal_pointer (Ty.Ptr Ty.Void));
  Alcotest.(check bool) "char* universal" true (Ty.is_universal_pointer (Ty.Ptr Ty.Char));
  Alcotest.(check bool) "int* not universal" false (Ty.is_universal_pointer (Ty.Ptr Ty.Int));
  Alcotest.(check bool) "fn ptr is code ptr" true
    (Ty.is_code_pointer (Ty.Ptr (Ty.Fn ([], Ty.Void))));
  Alcotest.(check bool) "int* not code ptr" false (Ty.is_code_pointer (Ty.Ptr Ty.Int))

let test_type_equal () =
  let f1 = Ty.Fn ([ Ty.Int; Ty.Ptr Ty.Char ], Ty.Int) in
  let f2 = Ty.Fn ([ Ty.Int; Ty.Ptr Ty.Char ], Ty.Int) in
  let f3 = Ty.Fn ([ Ty.Int ], Ty.Int) in
  Alcotest.(check bool) "fn equal" true (Ty.equal f1 f2);
  Alcotest.(check bool) "fn not equal" false (Ty.equal f1 f3);
  Alcotest.(check bool) "to_string" true
    (String.length (Ty.to_string (Ty.Ptr f1)) > 0)

let build_simple () =
  let p = Prog.create () in
  let b = B.create ~name:"f" ~params:[ ("x", Ty.Int) ] ~ret_ty:Ty.Int in
  let slot = B.alloca b Ty.Int in
  B.store b Ty.Int (I.Reg (B.param_reg b 0)) (I.Reg slot);
  let v = B.load b Ty.Int (I.Reg slot) in
  let d = B.bin b I.Add (I.Reg v) (I.Imm 1) in
  B.set_term b (I.Ret (Some (I.Reg d)));
  Prog.add_func p (B.finish b);
  p

let test_builder () =
  let p = build_simple () in
  let fn = Prog.find_func p "f" in
  Alcotest.(check int) "one block" 1 (Array.length fn.Prog.blocks);
  Alcotest.(check int) "four instrs" 4 (Array.length fn.Prog.blocks.(0).Prog.instrs);
  (match V.program_result p with
   | Ok () -> ()
   | Error e -> Alcotest.failf "verify: %s" e)

let test_printer () =
  let p = build_simple () in
  let s = Levee_ir.Printer.program p in
  Alcotest.(check bool) "mentions func" true
    (Helpers.contains s "func f");
  Alcotest.(check bool) "mentions alloca" true
    (Helpers.contains s "alloca")

let test_verifier_rejects () =
  let p = Prog.create () in
  let b = B.create ~name:"bad" ~params:[] ~ret_ty:Ty.Void in
  B.set_term b (I.Jmp 7);   (* branch to a nonexistent block *)
  Prog.add_func p (B.finish b);
  (match V.program_result p with
   | Ok () -> Alcotest.fail "verifier accepted branch to unknown block"
   | Error _ -> ());
  let p2 = Prog.create () in
  let b2 = B.create ~name:"bad2" ~params:[] ~ret_ty:Ty.Void in
  B.store b2 Ty.Int (I.Reg 99) (I.Imm 0);   (* undefined register *)
  B.set_term b2 (I.Ret None);
  Prog.add_func p2 (B.finish b2);
  (match V.program_result p2 with
   | Ok () -> Alcotest.fail "verifier accepted out-of-range register"
   | Error _ -> ())

let test_verifier_ret_mismatch () =
  let p = Prog.create () in
  let b = B.create ~name:"f" ~params:[] ~ret_ty:Ty.Int in
  B.set_term b (I.Ret None);   (* void return from int function *)
  Prog.add_func p (B.finish b);
  match V.program_result p with
  | Ok () -> Alcotest.fail "verifier accepted ret-void from int function"
  | Error _ -> ()

(* A build shares the source's blocks; its decisions and cookie are its
   own. f's b0.2 is the load. *)
let test_build_independent () =
  let p = build_simple () in
  let before = Levee_ir.Printer.program p in
  let q = Prog.build p in
  let fn_p = Prog.find_func p "f" and fn_q = Prog.find_func q "f" in
  Prog.decide fn_q 0 2 (I.Access (I.SafeFull, true));
  fn_q.Prog.cookie <- true;
  Alcotest.(check bool) "blocks shared" true (fn_q.Prog.blocks == fn_p.Prog.blocks);
  Alcotest.(check bool) "build routes the load" true
    (Prog.access fn_q 0 2 = (I.SafeFull, true));
  Alcotest.(check bool) "build prints it" true
    (Helpers.contains (Levee_ir.Printer.program q) "!cpi !chk");
  Alcotest.(check bool) "source has no knobs" true (fn_p.Prog.knobs = [||]);
  Alcotest.(check string) "source prints as before" before
    (Levee_ir.Printer.program p)

(* [Prog.decide] refuses a knob that does not fit its instruction, and
   any knob on a source function, naming the function and the position.
   g's b0 is an alloca, a direct call and a strcpy. *)
let test_decide_refuses () =
  let p = build_simple () in
  let b = B.create ~name:"g" ~params:[] ~ret_ty:Ty.Void in
  let buf = B.alloca b (Ty.Arr (Ty.Char, 4)) in
  ignore (B.call b ~ret_ty:Ty.Int (I.Direct "f") [ I.Imm 1 ]);
  ignore (B.intrin b I.I_strcpy [ I.Reg buf; I.Reg buf ]);
  B.set_term b (I.Ret None);
  Prog.add_func p (B.finish b);
  let q = Prog.build p in
  let refused (fn : Prog.func) bid idx k =
    let at = Printf.sprintf "b%d.%d in %s" bid idx fn.Prog.fname in
    match Prog.decide fn bid idx k with
    | () -> Alcotest.failf "knob accepted at %s" at
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (msg ^ " names " ^ at) true (Helpers.contains msg at)
  in
  let f = Prog.find_func q "f" and g = Prog.find_func q "g" in
  refused f 0 0 (I.Access (I.SafeFull, true));
  refused f 0 2 (I.Slot I.SafeSlot);
  refused g 0 1 (I.Cfi None);
  refused g 0 2 I.Safe_memop;
  List.iter (refused (Prog.find_func p "f") 0 2)
    [ I.Plain; I.Access (I.SafeFull, false) ]

let test_address_taken () =
  let p = Prog.create () in
  let mk name term_op =
    let b = B.create ~name ~params:[] ~ret_ty:Ty.Void in
    (match term_op with
     | Some o -> ignore (B.intrin b Levee_ir.Instr.I_checksum [ o ])
     | None -> ());
    B.set_term b (I.Ret None);
    Prog.add_func p (B.finish b)
  in
  mk "target" None;
  mk "untaken" None;
  mk "user" (Some (I.Fun "target"));
  let taken = Prog.compute_address_taken p in
  Alcotest.(check bool) "target taken" true (Hashtbl.mem taken "target");
  Alcotest.(check bool) "untaken not" false (Hashtbl.mem taken "untaken");
  Alcotest.(check bool) "flag set" true
    (Prog.find_func p "target").Prog.address_taken

let () =
  Alcotest.run "ir"
    [ ("types",
       [ Alcotest.test_case "sizes" `Quick test_sizes;
         Alcotest.test_case "field offsets" `Quick test_field_offsets;
         Alcotest.test_case "predicates" `Quick test_type_predicates;
         Alcotest.test_case "equality" `Quick test_type_equal ]);
      ("builder",
       [ Alcotest.test_case "simple function" `Quick test_builder;
         Alcotest.test_case "printer" `Quick test_printer ]);
      ("verifier",
       [ Alcotest.test_case "rejects bad programs" `Quick test_verifier_rejects;
         Alcotest.test_case "ret type mismatch" `Quick test_verifier_ret_mismatch ]);
      ("program",
       [ Alcotest.test_case "build independence" `Quick test_build_independent;
         Alcotest.test_case "decide refuses misfit knobs" `Quick test_decide_refuses;
         Alcotest.test_case "address-taken analysis" `Quick test_address_taken ]) ]
