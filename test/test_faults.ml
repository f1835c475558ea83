(* Tests for the fault-injection campaign layer: plan resolution is
   deterministic, the levee-faults/3 report is byte-identical across runs
   and across --jobs, the paper's invariants hold on the smoke campaign,
   and the engine journals a cell whose harness task raises as a failed
   cell without stopping the batch. *)

module P = Levee_core.Pipeline
module M = Levee_machine
module A = Levee_attacks
module W = Levee_workloads
module Faults = Levee_harness.Faults
module Engine = Levee_harness.Engine
module Journal = Levee_support.Journal

(* The smoke campaign is the shared fixture; run it once per jobs
   setting and memoize (the cost model is deterministic, so reuse is
   sound). *)
let smoke = lazy (Faults.smoke ())
let report1 = lazy (Faults.run ~jobs:1 (Lazy.force smoke))
let report4 = lazy (Faults.run ~jobs:4 (Lazy.force smoke))

let test_covers_all_stores () =
  let c = Lazy.force smoke in
  List.iter
    (fun impl ->
      Alcotest.(check bool)
        (Printf.sprintf "campaign sweeps %s" (M.Safestore.impl_name impl))
        true
        (List.exists (fun (_, s) -> s = impl) c.Faults.configs))
    [ M.Safestore.Simple_array; M.Safestore.Two_level; M.Safestore.Hashtable ]

let test_report_deterministic () =
  (* Double run at jobs=1: byte-identical JSON. *)
  let j1 = Faults.to_json (Lazy.force report1) in
  let j1' = Faults.to_json (Faults.run ~jobs:1 (Lazy.force smoke)) in
  Alcotest.(check string) "double run byte-identical" j1 j1';
  (* jobs=1 vs jobs=4: byte-identical JSON (no wall/jobs fields). *)
  let j4 = Faults.to_json (Lazy.force report4) in
  Alcotest.(check string) "jobs=1 equals jobs=4" j1 j4

let test_invariants () =
  let rep = Lazy.force report1 in
  let rs = Faults.runs rep in
  let hijacked prot =
    List.length
      (List.filter
         (fun r ->
           r.Faults.r_protection = prot && r.Faults.r_class = "hijacked")
         rs)
  in
  Alcotest.(check int) "cpi never hijacked" 0 (hijacked P.Cpi);
  Alcotest.(check bool) "vanilla hijacked by same plans" true
    (hijacked P.Vanilla >= 1);
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    (Faults.invariants rep);
  Alcotest.(check bool) "invariants_ok" true (Faults.invariants_ok rep)

(* The protection spectrum, asserted as ordered hijack counts plus the
   metadata-drop separation (encryption survives what the safe region
   does not — there is no table to drop). *)
let test_spectrum_ordering () =
  let rep = Lazy.force report1 in
  let rs = Faults.runs rep in
  let hijacked prot =
    List.length
      (List.filter
         (fun r ->
           r.Faults.r_protection = prot && r.Faults.r_class = "hijacked")
         rs)
  in
  Alcotest.(check bool) "coarse cfi hijacked at least once" true
    (hijacked P.Cfi >= 1);
  Alcotest.(check bool) "cfi-type strictly tighter than coarse cfi" true
    (hijacked P.Cfi_type < hijacked P.Cfi);
  Alcotest.(check bool) "cfi-type still pierced by the same-sig swap" true
    (hijacked P.Cfi_type >= 1);
  Alcotest.(check int) "cpi-crypt never hijacked" 0 (hijacked P.Cpi_crypt);
  Alcotest.(check bool) "vanilla the coarsest of all" true
    (hijacked P.Vanilla >= hijacked P.Cfi)

let test_metadata_drop_separation () =
  let rep = Lazy.force report1 in
  let rs = Faults.runs rep in
  let cls prot plan =
    List.filter_map
      (fun r ->
        if r.Faults.r_protection = prot && r.Faults.r_plan = plan then
          Some r.Faults.r_class
        else None)
      rs
  in
  List.iter
    (fun plan ->
      Alcotest.(check bool)
        (plan ^ " masked under cpi-crypt (no safe store to corrupt)")
        true
        (cls P.Cpi_crypt plan <> []
        && List.for_all (fun c -> c = "masked") (cls P.Cpi_crypt plan)))
    [ "gfp-desync"; "gfp-dropmeta" ];
  Alcotest.(check bool) "cpi visibly depends on its metadata" true
    (List.exists
       (fun c -> c <> "masked")
       (cls P.Cpi "gfp-desync" @ cls P.Cpi "gfp-dropmeta"))

let test_record_fields () =
  let module RS = Levee_support.Runstore in
  let r = Faults.to_record ~commit:"t" (Lazy.force report1) in
  Alcotest.(check string) "bumped schema" "levee-faults/3" r.RS.schema;
  List.iter
    (fun f ->
      Alcotest.(check bool) ("record carries " ^ f) true
        (List.mem_assoc f r.RS.metrics))
    [ "hijacked_vanilla"; "hijacked_cfi"; "hijacked_cfi_type";
      "hijacked_cpi"; "hijacked_cpi_crypt" ];
  Alcotest.(check bool) "per-backend counts are ordered" true
    (match
       ( List.assoc "hijacked_vanilla" r.RS.metrics,
         List.assoc "hijacked_cfi" r.RS.metrics,
         List.assoc "hijacked_cfi_type" r.RS.metrics,
         List.assoc "hijacked_cpi" r.RS.metrics,
         List.assoc "hijacked_cpi_crypt" r.RS.metrics )
     with
     | RS.Int v, RS.Int c, RS.Int t, RS.Int p, RS.Int k ->
       v >= c && c > t && t > p && p = 0 && k = 0
     | _ -> false)

let test_random_plan_deterministic () =
  let draw () =
    A.Faultplan.random ~name:"r" ~seed:9001 ~events:5 ~max_step:300
  in
  Alcotest.(check bool) "same seed, same plan" true (draw () = draw ());
  Alcotest.(check bool) "different seed, different plan" true
    (draw () <> A.Faultplan.random ~name:"r" ~seed:9002 ~events:5 ~max_step:300)

let test_resolve_deterministic () =
  let c = Lazy.force smoke in
  let s = List.hd c.Faults.subjects in
  let prog = Levee_minic.Lower.compile ~name:s.Faults.sname s.Faults.source in
  let vb = P.build P.Vanilla prog in
  let reference = M.Loader.load vb.P.prog vb.P.config in
  let cb = P.build P.Cpi prog in
  let deployed = M.Loader.load cb.P.prog cb.P.config in
  List.iter
    (fun plan ->
      let f1 = A.Faultplan.resolve ~reference ~deployed plan in
      let f2 = A.Faultplan.resolve ~reference ~deployed plan in
      Alcotest.(check bool)
        ("resolve deterministic: " ^ plan.A.Faultplan.name)
        true (f1 = f2);
      Alcotest.(check bool)
        ("resolve nonempty: " ^ plan.A.Faultplan.name)
        true (f1 <> []))
    s.Faults.splans

(* ---------- engine harness failures ---------- *)

let broken_workload name : W.Workload.t =
  { W.Workload.name; lang = W.Workload.C;
    description = "deliberately unparsable";
    source = "int main( {"; input = [||]; fuel = 1000 }

(* A cell whose harness task raises is journalled with status 1 and
   reported once per execution; a later batch runs it again, and a direct
   lookup re-raises the same exception. *)
let test_engine_harness_exception jobs () =
  let e = Engine.create ~jobs () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let j = Journal.create ~jobs ~target:"t" () in
      Engine.set_journal e (Some j);
      let broken = broken_workload "broken" in
      let fine =
        { broken with W.Workload.name = "fine";
                      source = "int main() { return 0; }" }
      in
      Engine.prefetch e
        [ Engine.cell broken P.Vanilla; Engine.cell fine P.Vanilla;
          Engine.cell broken P.Cpi ];
      Engine.prefetch e [ Engine.cell broken P.Vanilla ];
      let failures = Engine.harness_failures e in
      Alcotest.(check (list string)) "failed cells in submission order"
        [ "broken/vanilla"; "broken/cpi"; "broken/vanilla" ]
        (List.map fst failures);
      List.iter
        (fun (cell, reason) ->
          Alcotest.(check bool) (cell ^ " reason") true
            (String.starts_with ~prefix:"harness-exception(" reason))
        failures;
      Alcotest.(check (list int)) "journal statuses" [ 1; 0; 1; 1 ]
        (List.map (fun en -> en.Journal.status) (Journal.entries j));
      match Engine.run_workload e broken P.Vanilla with
      | _ -> Alcotest.fail "direct lookup of a broken cell must raise"
      | exception exn ->
        Alcotest.(check string) "direct lookup re-raises"
          (snd (List.hd failures))
          ("harness-exception(" ^ Printexc.to_string exn ^ ")"))

let () =
  Alcotest.run "faults"
    [ ( "campaign",
        [ Alcotest.test_case "covers all stores" `Quick test_covers_all_stores;
          Alcotest.test_case "report deterministic" `Slow
            test_report_deterministic;
          Alcotest.test_case "invariants hold" `Slow test_invariants;
          Alcotest.test_case "spectrum ordering" `Slow test_spectrum_ordering;
          Alcotest.test_case "metadata-drop separation" `Slow
            test_metadata_drop_separation;
          Alcotest.test_case "record fields" `Slow test_record_fields ] );
      ( "plans",
        [ Alcotest.test_case "random deterministic" `Quick
            test_random_plan_deterministic;
          Alcotest.test_case "resolve deterministic" `Quick
            test_resolve_deterministic ] );
      ( "engine",
        [ Alcotest.test_case "harness exception jobs=1" `Quick
            (test_engine_harness_exception 1);
          Alcotest.test_case "harness exception jobs=2" `Quick
            (test_engine_harness_exception 2) ] ) ]
