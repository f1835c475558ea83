(* Workload integrity tests: every evaluation workload must terminate
   cleanly under every protection with an identical checksum — protections
   must never change program behaviour. Overhead-shape assertions encode
   the paper's qualitative findings.

   Every (workload, protection) cell runs once: one [Engine.prefetch]
   over the whole matrix fills the engine's memo through a pool as wide
   as the machine, and both kinds of case read their results from it. A
   cell whose harness task raised in the prefetch fails every case: a
   later lookup would quietly run it again, outside the batch. *)

module P = Levee_core.Pipeline
module W = Levee_workloads
module M = Levee_machine
module Stats = Levee_core.Stats
module Engine = Levee_harness.Engine

let t name f = Alcotest.test_case name f

let protections = P.all_protections

let workloads =
  W.Spec.all @ W.Phoronix.all @ W.Webstack.all @ W.Base_system.all

(* The memory test also wants omnetpp under CPI on the hashtable store. *)
let engine =
  lazy
    (let e = Engine.create ~jobs:(Domain.recommended_domain_count ()) () in
     at_exit (fun () -> Engine.shutdown e);
     Engine.prefetch e
       (List.concat_map
          (fun w -> List.map (Engine.cell w) protections)
          workloads
       @ [ Engine.cell ~store_impl:M.Safestore.Hashtable
             (W.Spec.find "471.omnetpp") P.Cpi ]);
     (match Engine.harness_failures e with
      | [] -> ()
      | (cell, reason) :: _ -> Alcotest.failf "prefetch: %s: %s" cell reason);
     e)

let result ?store_impl w p =
  Engine.run_workload (Lazy.force engine) ?store_impl w p

let run_all (w : W.Workload.t) =
  List.map (fun p -> (p, result w p)) protections

let check_differential (w : W.Workload.t) () =
  let results = run_all w in
  let _, base = List.hd results in
  (match base.M.Interp.outcome with
   | M.Trap.Exit 0 -> ()
   | o ->
     Alcotest.failf "%s vanilla: %s" w.W.Workload.name (M.Trap.outcome_to_string o));
  List.iter
    (fun (p, (r : M.Interp.result)) ->
      (match r.M.Interp.outcome with
       | M.Trap.Exit 0 -> ()
       | o ->
         Alcotest.failf "%s under %s: %s" w.W.Workload.name (P.protection_name p)
           (M.Trap.outcome_to_string o));
      Alcotest.(check bool)
        (Printf.sprintf "%s checksum under %s" w.W.Workload.name
           (P.protection_name p))
        true
        (r.M.Interp.checksum = base.M.Interp.checksum
         && r.M.Interp.output = base.M.Interp.output))
    results

let differential_cases =
  List.map
    (fun (w : W.Workload.t) ->
      t w.W.Workload.name `Slow (check_differential w))
    workloads

let overhead prot w = Engine.overhead (Lazy.force engine) w prot

let test_cpp_heavier_than_c () =
  (* Table 1's structure: the C++ group costs CPI more than the C group *)
  let avg l = Levee_support.Stats.mean l in
  let c = avg (List.map (overhead P.Cpi) W.Spec.c_only) in
  let cpp =
    avg
      (List.map (overhead P.Cpi)
         (List.filter (fun w -> w.W.Workload.lang = W.Workload.Cpp) W.Spec.all))
  in
  Alcotest.(check bool) "C++ CPI overhead exceeds C" true (cpp > c)

let test_cps_cheaper_than_cpi () =
  List.iter
    (fun name ->
      let w = W.Spec.find name in
      Alcotest.(check bool) (name ^ ": CPS <= CPI") true
        (overhead P.Cps w <= overhead P.Cpi w +. 0.2))
    [ "400.perlbench"; "471.omnetpp"; "483.xalancbmk"; "447.dealII" ]

let test_safestack_near_zero () =
  (* |safe stack overhead| stays small; namd must be a speedup *)
  List.iter
    (fun (w : W.Workload.t) ->
      let o = overhead P.Safe_stack w in
      Alcotest.(check bool)
        (w.W.Workload.name ^ " safestack within 6%") true
        (o < 6.0))
    W.Spec.all;
  Alcotest.(check bool) "namd speeds up" true
    (overhead P.Safe_stack (W.Spec.find "444.namd") < -1.0)

let test_softbound_much_heavier () =
  List.iter
    (fun name ->
      let w = W.Spec.find name in
      let sb = overhead P.Softbound w in
      let cpi = overhead P.Cpi w in
      Alcotest.(check bool) (name ^ ": SoftBound >> CPI") true (sb > cpi +. 20.0))
    [ "401.bzip2"; "447.dealII"; "458.sjeng"; "464.h264ref" ]

let test_outliers () =
  (* omnetpp and xalancbmk are the CPI outliers; the dynamic web page is
     the worst of the web stack *)
  let omnetpp = overhead P.Cpi (W.Spec.find "471.omnetpp") in
  let mcf = overhead P.Cpi (W.Spec.find "429.mcf") in
  Alcotest.(check bool) "omnetpp >> mcf" true (omnetpp > mcf +. 5.0);
  let dynamic = overhead P.Cpi W.Webstack.dynamic_page in
  let static_ = overhead P.Cpi W.Webstack.static_page in
  Alcotest.(check bool) "dynamic page worst" true (dynamic > static_)

let test_table2_shapes () =
  (* MOCPI fractions: omnetpp/xalancbmk high, sjeng/milc low *)
  let mocpi name =
    Stats.mo_instrumented (P.build P.Cpi (W.Workload.compile (W.Spec.find name))).P.stats
  in
  Alcotest.(check bool) "omnetpp heavily instrumented" true
    (mocpi "471.omnetpp" > 0.10);
  Alcotest.(check bool) "sjeng barely instrumented" true (mocpi "458.sjeng" < 0.02);
  Alcotest.(check bool) "milc barely instrumented" true (mocpi "433.milc" < 0.02)

let test_fnustack_shapes () =
  (* every workload has some functions with unsafe frames, but never all *)
  List.iter
    (fun name ->
      let w = W.Spec.find name in
      let s = (P.build P.Safe_stack (W.Workload.compile w)).P.stats in
      let f = Stats.fnustack s in
      Alcotest.(check bool) (name ^ " fnustack in (0,1)") true (f > 0.0 && f < 1.0))
    [ "458.sjeng"; "444.namd"; "401.bzip2" ]

let test_memory_overheads () =
  (* array store costs much more memory than hashtable under CPI *)
  let w = W.Spec.find "471.omnetpp" in
  let footprint impl =
    (result ~store_impl:impl w P.Cpi).M.Interp.store_footprint
  in
  Alcotest.(check bool) "array >> hashtable memory" true
    (footprint M.Safestore.Simple_array > 2 * footprint M.Safestore.Hashtable)

let () =
  Alcotest.run "workloads"
    [ ("differential", differential_cases);
      ("overhead shapes",
       [ t "C++ heavier than C" `Slow test_cpp_heavier_than_c;
         t "CPS cheaper than CPI" `Slow test_cps_cheaper_than_cpi;
         t "safe stack near zero, namd negative" `Slow test_safestack_near_zero;
         t "SoftBound much heavier" `Slow test_softbound_much_heavier;
         t "outliers" `Slow test_outliers ]);
      ("static statistics",
       [ t "Table 2 MO shapes" `Quick test_table2_shapes;
         t "FNUStack shapes" `Quick test_fnustack_shapes ]);
      ("memory", [ t "store organisation footprints" `Slow test_memory_overheads ]) ]
