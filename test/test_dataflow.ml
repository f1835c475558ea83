(* Unit tests for the reusable dataflow substrate (lib/analysis/dataflow):
   CFG construction, iterative dominators and the forward worklist solver,
   exercised on hand-built graphs — including an irreducible loop that
   MiniC lowering can never produce. *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog
module D = Levee_analysis.Dataflow

let t name f = Alcotest.test_case name `Quick f

let blk bid term = { Prog.bid; instrs = [||]; term }

let func blocks =
  { Prog.fname = "synthetic"; params = []; ret_ty = Ty.Int;
    blocks = Array.of_list blocks; nregs = 1; cookie = false;
    address_taken = false }

let ret = I.Ret (Some (I.Imm 0))
let cond = I.Reg 0

(* 0 -> {1,2} -> 3: the classic diamond *)
let diamond () =
  func [ blk 0 (I.Br (cond, 1, 2)); blk 1 (I.Jmp 3); blk 2 (I.Jmp 3);
         blk 3 ret ]

(* 0 -> 1 <-> 2, 1 -> 3: a reducible while loop *)
let while_loop () =
  func [ blk 0 (I.Jmp 1); blk 1 (I.Br (cond, 2, 3)); blk 2 (I.Jmp 1);
         blk 3 ret ]

(* 0 branches into BOTH of {1, 2}, which form a cycle with each other:
   a two-entry (irreducible) loop. No single loop header dominates the
   cycle, so naive interval/structural analyses are off the table; the
   iterative dominator algorithm and the worklist solver must still
   converge. *)
let irreducible () =
  func [ blk 0 (I.Br (cond, 1, 2)); blk 1 (I.Br (cond, 2, 3));
         blk 2 (I.Jmp 1); blk 3 ret ]

(* block 2 is unreachable *)
let with_dead_block () =
  func [ blk 0 (I.Jmp 1); blk 1 ret; blk 2 (I.Jmp 1) ]

let sorted = List.sort_uniq compare

let test_successors () =
  Alcotest.(check (list int)) "jmp" [ 4 ] (D.successors (I.Jmp 4));
  Alcotest.(check (list int)) "ret" [] (D.successors ret);
  Alcotest.(check (list int)) "unreachable" [] (D.successors I.Unreachable);
  Alcotest.(check (list int)) "br dedups equal arms" [ 3 ]
    (sorted (D.successors (I.Br (cond, 3, 3))));
  Alcotest.(check (list int)) "switch dedups" [ 1; 2 ]
    (sorted (D.successors (I.Switch (cond, [ (0, 1); (5, 2); (9, 1) ], 2))))

let test_cfg_edges () =
  let cfg = D.build (diamond ()) in
  Alcotest.(check int) "nblocks" 4 cfg.D.nblocks;
  Alcotest.(check (list int)) "succs 0" [ 1; 2 ] (sorted cfg.D.succs.(0));
  Alcotest.(check (list int)) "preds 3" [ 1; 2 ] (sorted cfg.D.preds.(3));
  Alcotest.(check (list int)) "preds 0" [] cfg.D.preds.(0);
  (* rpo visits the entry first and every reachable block exactly once *)
  Alcotest.(check int) "rpo head" 0 cfg.D.rpo.(0);
  Alcotest.(check (list int)) "rpo covers graph" [ 0; 1; 2; 3 ]
    (sorted (Array.to_list cfg.D.rpo));
  Array.iteri
    (fun pos b ->
      Alcotest.(check int) "rpo_index inverts rpo" pos cfg.D.rpo_index.(b))
    cfg.D.rpo

let test_cfg_dead_block () =
  let cfg = D.build (with_dead_block ()) in
  Alcotest.(check (list int)) "dead block not in rpo" [ 0; 1 ]
    (sorted (Array.to_list cfg.D.rpo));
  Alcotest.(check int) "dead rpo_index" (-1) cfg.D.rpo_index.(2);
  let idom = D.dominators cfg in
  Alcotest.(check int) "dead idom" (-1) idom.(2)

let test_dominators_diamond () =
  let cfg = D.build (diamond ()) in
  let idom = D.dominators cfg in
  Alcotest.(check int) "entry self" 0 idom.(0);
  Alcotest.(check int) "idom 1" 0 idom.(1);
  Alcotest.(check int) "idom 2" 0 idom.(2);
  (* the join is dominated by the entry, not by either arm *)
  Alcotest.(check int) "idom 3" 0 idom.(3);
  Alcotest.(check bool) "0 dom 3" true (D.dominates idom 0 3);
  Alcotest.(check bool) "1 !dom 3" false (D.dominates idom 1 3);
  Alcotest.(check bool) "reflexive" true (D.dominates idom 2 2)

let test_dominators_loop () =
  let cfg = D.build (while_loop ()) in
  let idom = D.dominators cfg in
  Alcotest.(check int) "header idom" 0 idom.(1);
  Alcotest.(check int) "body idom" 1 idom.(2);
  Alcotest.(check int) "exit idom" 1 idom.(3);
  Alcotest.(check bool) "header dom body" true (D.dominates idom 1 2);
  Alcotest.(check bool) "body !dom header" false (D.dominates idom 2 1)

let test_dominators_irreducible () =
  let cfg = D.build (irreducible ()) in
  let idom = D.dominators cfg in
  (* neither cycle entry dominates the other: both hang off the branch *)
  Alcotest.(check int) "idom 1" 0 idom.(1);
  Alcotest.(check int) "idom 2" 0 idom.(2);
  Alcotest.(check bool) "1 !dom 2" false (D.dominates idom 1 2);
  Alcotest.(check bool) "2 !dom 1" false (D.dominates idom 2 1);
  (* the exit is only reachable through block 1 *)
  Alcotest.(check int) "idom 3" 1 idom.(3)

(* Path-set analysis: the entry state of a block is the set of block ids
   appearing on some path from the entry to it. Set union is a proper
   join-semilattice, so the solver must reach the unique least fixpoint
   on every graph — including the irreducible one. *)
let path_sets fn =
  let cfg = D.build fn in
  let states =
    D.solve cfg ~entry:[ ] ~bottom:[] ~join:(fun a b -> sorted (a @ b))
      ~equal:(fun a b -> a = b)
      ~transfer:(fun b s -> sorted (b :: s))
  in
  (cfg, states)

let test_solver_diamond () =
  let _, states = path_sets (diamond ()) in
  Alcotest.(check (list int)) "entry has no predecessors" [] states.(0);
  Alcotest.(check (list int)) "then-arm sees entry" [ 0 ] states.(1);
  (* the join merges both arms *)
  Alcotest.(check (list int)) "join sees both arms" [ 0; 1; 2 ] states.(3)

let test_solver_loop_converges () =
  let _, states = path_sets (while_loop ()) in
  (* the back edge feeds the body into the header's own entry state *)
  Alcotest.(check (list int)) "header absorbs back edge" [ 0; 1; 2 ] states.(1);
  Alcotest.(check (list int)) "exit" [ 0; 1; 2 ] states.(3)

let test_solver_irreducible_converges () =
  let _, states = path_sets (irreducible ()) in
  (* both cycle entries end up seeing the whole cycle plus the entry *)
  Alcotest.(check (list int)) "cycle entry 1" [ 0; 1; 2 ] states.(1);
  Alcotest.(check (list int)) "cycle entry 2" [ 0; 1; 2 ] states.(2);
  Alcotest.(check (list int)) "exit" [ 0; 1; 2 ] states.(3)

let test_solver_dead_block_stays_bottom () =
  let _, states = path_sets (with_dead_block ()) in
  Alcotest.(check (list int)) "reachable" [ 0 ] states.(1);
  Alcotest.(check (list int)) "unreachable keeps bottom" [] states.(2)

(* The solver on a lowered MiniC function must agree with a naive
   round-robin iteration to fixpoint — a differential check that the
   worklist bookkeeping loses no propagation. *)
let test_solver_matches_naive () =
  let prog =
    Levee_minic.Lower.compile
      {|int main() {
          int i; int s; s = 0;
          for (i = 0; i < 10; i = i + 1) {
            if (i - (i / 2) * 2) { s = s + i; } else { s = s - 1; }
          }
          return s;
        }|}
  in
  let fn = Prog.find_func prog "main" in
  let cfg = D.build fn in
  let join a b = sorted (a @ b) in
  let transfer b s = sorted (b :: s) in
  let got =
    D.solve cfg ~entry:[] ~bottom:[] ~join ~equal:( = ) ~transfer
  in
  (* naive: iterate all blocks until nothing changes *)
  let n = cfg.D.nblocks in
  let state = Array.make n [] in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      if cfg.D.rpo_index.(b) >= 0 && b <> 0 then begin
        let inc =
          List.fold_left
            (fun acc p -> join acc (transfer p state.(p)))
            [] cfg.D.preds.(b)
        in
        if inc <> state.(b) then begin
          state.(b) <- inc;
          changed := true
        end
      end
    done
  done;
  Array.iteri
    (fun b s ->
      if cfg.D.rpo_index.(b) >= 0 then
        Alcotest.(check (list int))
          (Printf.sprintf "block %d agrees with naive fixpoint" b)
          state.(b) s)
    got

let () =
  Alcotest.run "dataflow"
    [ ("cfg",
       [ t "terminator successors" test_successors;
         t "edges and rpo" test_cfg_edges;
         t "dead block excluded" test_cfg_dead_block ]);
      ("dominators",
       [ t "diamond" test_dominators_diamond;
         t "while loop" test_dominators_loop;
         t "irreducible two-entry loop" test_dominators_irreducible ]);
      ("solver",
       [ t "diamond join" test_solver_diamond;
         t "loop converges" test_solver_loop_converges;
         t "irreducible converges" test_solver_irreducible_converges;
         t "dead block stays bottom" test_solver_dead_block_stays_bottom;
         t "matches naive fixpoint on lowered code" test_solver_matches_naive ]) ]
