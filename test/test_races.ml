(* Static race detector, safe-region separation certificates, and the
   static-vs-dynamic cross-validation harness.

   The headline property (the ISSUE's acceptance bar) is empirical
   soundness: every race the dynamic Eraser detector observes on the
   corpus, under any scheduler seed 0..7 and either protection, is also
   flagged statically. The golden JSON test pins the canonical finding
   order of the levee-analyze/2 document byte-for-byte. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog
module V = Levee_ir.Verify
module P = Levee_core.Pipeline
module An = Levee_analysis
module X = Levee_harness.Crossval

let t name f = Alcotest.test_case name `Quick f

let subject name =
  List.find (fun (s : X.subject) -> s.X.xname = name) X.corpus

let compile name = Levee_minic.Lower.compile ~name (subject name).X.source

(* First instruction in [fname] matching [pred], as (block, idx). *)
let find_pos prog fname pred =
  let fn = Prog.find_func prog fname in
  let res = ref None in
  Array.iter
    (fun (b : Prog.block) ->
      Array.iteri
        (fun idx ins ->
          if !res = None && pred ins then res := Some (b.Prog.bid, idx))
        b.Prog.instrs)
    fn.Prog.blocks;
  match !res with
  | Some p -> p
  | None -> Alcotest.failf "no matching instruction in %s" fname

(* ---------- lockset contexts ---------- *)

let test_lockset_dcl () =
  let prog = compile "dcl" in
  let pt = An.Pointsto.analyze prog in
  let ls = An.Lockset.analyze prog pt in
  Alcotest.(check bool) "dcl spawns" true (An.Lockset.has_spawn ls);
  let ctx fname (block, idx) =
    match An.Lockset.ctx_at ls ~fname ~block ~idx with
    | Some c -> c
    | None -> Alcotest.failf "no context at %s@b%d.%d" fname block idx
  in
  (* The unlocked fast-path read of `ready` holds nothing... *)
  let load_ready =
    find_pos prog "user" (function
      | I.Load { addr = I.Glob "ready"; _ } -> true
      | _ -> false)
  in
  let c_load = ctx "user" load_ready in
  Alcotest.(check bool) "fast path lockset empty" true (c_load.An.Lockset.cx_locks = []);
  (* ...while the double-checked install of `handler` holds the mutex. *)
  let store_handler =
    find_pos prog "user" (function
      | I.Store { addr = I.Glob "handler"; _ } -> true
      | _ -> false)
  in
  let c_store = ctx "user" store_handler in
  Alcotest.(check bool) "locked install holds lk" true
    (List.mem (An.Pointsto.O_global "lk") c_store.An.Lockset.cx_locks);
  (* user runs under both spawn classes; neither is multi-instance. *)
  Alcotest.(check int) "two spawn classes" 2
    (List.length c_load.An.Lockset.cx_classes);
  List.iter
    (fun c ->
      Alcotest.(check bool) "single-instance class" false
        (An.Lockset.multi_class ls c))
    c_load.An.Lockset.cx_classes;
  Alcotest.(check bool) "cross-class accesses overlap" true
    (An.Lockset.may_overlap ls c_load c_store);
  (* main after both joins is concurrent with nothing. *)
  let print_pos =
    find_pos prog "main" (function
      | I.Intrin { op = I.I_print_int; _ } -> true
      | _ -> false)
  in
  let c_main = ctx "main" print_pos in
  Alcotest.(check bool) "main post-join not live" false
    c_main.An.Lockset.cx_mainlive;
  Alcotest.(check bool) "main post-join overlaps nothing" false
    (An.Lockset.may_overlap ls c_main c_store)

(* ---------- static verdicts over the corpus ---------- *)

let race_keys prog =
  List.map (fun (r : An.Racecheck.race) -> r.An.Racecheck.rc_obj)
    (An.Racecheck.races prog)

let test_static_verdicts () =
  Alcotest.(check (list string)) "racy_counter" [ "global:counter" ]
    (race_keys (compile "racy_counter"));
  Alcotest.(check (list string)) "dcl" [ "global:handler"; "global:ready" ]
    (race_keys (compile "dcl"));
  Alcotest.(check (list string)) "guarded_web" []
    (race_keys (compile "guarded_web"));
  Alcotest.(check (list string)) "registry (conc.c)" []
    (race_keys (compile "registry"));
  (* The function-pointer race is safe-region storage; the counter race
     is plain shared data. *)
  let storages name =
    List.map (fun (r : An.Racecheck.race) -> (r.An.Racecheck.rc_obj, r.An.Racecheck.rc_storage))
      (An.Racecheck.races (compile name))
  in
  Alcotest.(check (list (pair string string))) "dcl storages"
    [ ("global:handler", "safe-region"); ("global:ready", "shared-data") ]
    (storages "dcl");
  Alcotest.(check (list (pair string string))) "counter storage"
    [ ("global:counter", "shared-data") ]
    (storages "racy_counter")

(* ---------- separation certificates and replay ---------- *)

let test_separation_replay () =
  let build name = (P.build P.Cpi (compile name)).P.prog in
  List.iter
    (fun name ->
      let p = build name in
      let sep = An.Racecheck.separation p in
      Alcotest.(check bool) (name ^ " fully certified") true
        (sep.An.Racecheck.sp_unproven = [] && sep.An.Racecheck.sp_certs <> []);
      Alcotest.(check bool) (name ^ " replay ok") true
        (sep.An.Racecheck.sp_replay = Ok ()))
    [ "racy_counter"; "dcl"; "guarded_web"; "registry" ];
  (* A tampered certificate (claiming fewer roots than the store can
     reach) must be rejected by the independent replay. *)
  let p = build "guarded_web" in
  let sep = An.Racecheck.separation p in
  let model = sep.An.Racecheck.sp_model in
  (match sep.An.Racecheck.sp_certs with
   | c :: rest ->
     let forged = { c with V.sc_roots = [] } in
     (match V.check_separation p ~model (forged :: rest) with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "forged certificate replayed")
   | [] -> Alcotest.fail "no certificates to tamper with");
  (* A tampered model (hiding a safe root) must fail the audit: the
     replay re-derives the protected set and notices the omission. *)
  let pd = build "dcl" in
  let sepd = An.Racecheck.separation pd in
  let md = sepd.An.Racecheck.sp_model in
  (match md.V.sm_safe with
   | _ :: tl ->
     let hidden = { md with V.sm_safe = tl } in
     (match V.check_separation pd ~model:hidden sepd.An.Racecheck.sp_certs with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "hidden safe root passed the audit")
   | [] -> Alcotest.fail "dcl CPI build has no safe accesses")

(* ---------- golden JSON: canonical order, byte-stable ---------- *)

let golden_racy_counter =
  {|{
"schema":"levee-analyze/2",
"source":"racy_counter.c",
"findings":[
{"severity":"warning","kind":"potential-race","func":"worker","block":2,"idx":0,"msg":"global:counter (shared-data) is written without a common lock by concurrent threads (2 access sites)"}
],
"functions":[
{"name":"worker","mem_ops":9,"sensitive":0,"sensitive_pct":0.0,"forced":0,"char_demoted":0,"demotable":0,"indirect_calls":0},
{"name":"main","mem_ops":6,"sensitive":0,"sensitive_pct":0.0,"forced":0,"char_demoted":0,"demotable":0,"indirect_calls":0}
],
"races":[
{"object":"global:counter","storage":"shared-data","sites":[
{"func":"worker","block":2,"idx":0,"write":false,"locked":false},
{"func":"worker","block":2,"idx":2,"write":true,"locked":false}
]}
],
"separation":{"plain_stores":7,"certified":7,"unproven":0,"opaque_safe":0,"replay_ok":true},
"cpi":{"checks_elided":0,"mem_ops_demoted":0},
"totals":{"errors":0,"warnings":1,"info":0}
}
|}

let full_report name =
  let prog = Levee_minic.Lower.compile ~name:(name ^ ".c") (subject name).X.source in
  let report = An.Diag.analyze ~name:(name ^ ".c") prog in
  let report = An.Diag.add_races report (An.Racecheck.races prog) in
  let built = P.build P.Cpi prog in
  An.Diag.add_separation report (An.Racecheck.separation built.P.prog)

let test_golden_json () =
  let r = full_report "racy_counter" in
  Alcotest.(check string) "levee-analyze/2 golden" golden_racy_counter
    (An.Diag.to_json ~elided:0 ~demoted:0 r);
  (* Two independently recomputed reports agree byte-for-byte. *)
  let r2 = full_report "racy_counter" in
  Alcotest.(check string) "recomputed byte-identical"
    (An.Diag.to_json r) (An.Diag.to_json r2)

(* ---------- the soundness property: seeds 0..7, both protections ---- *)

let test_crossval_soundness () =
  let rep = X.run ~jobs:2 ~seeds:[ 0; 1; 2; 3; 4; 5; 6; 7 ] X.corpus in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    (X.invariants rep);
  (* Spell the no-false-negative inclusion out per cell: every key the
     dynamic detector reported is covered by that subject's static set. *)
  List.iter
    (fun v ->
      List.iter
        (fun (c : X.cell) ->
          List.iter
            (fun k ->
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d key %s covered" v.X.v_subject
                   c.X.c_seed k)
                true
                (X.covers v.X.v_static k))
            c.X.c_races)
        v.X.v_cells)
    (X.verdicts rep);
  (* Racy subjects are witnessed dynamically under every seed of at
     least one protection -- the static verdicts are not vacuous. *)
  List.iter
    (fun v ->
      if v.X.v_racy then
        Alcotest.(check bool)
          (v.X.v_subject ^ " dynamically witnessed") true
          (List.exists (fun (c : X.cell) -> c.X.c_races <> []) v.X.v_cells))
    (X.verdicts rep)

(* ---------- the faults link ---------- *)

let test_faults_link () =
  let fcs = X.faults_cross ~jobs:2 () in
  Alcotest.(check bool) "campaign subjects analyzed" true (fcs <> []);
  List.iter
    (fun (fc : X.faults_cross) ->
      Alcotest.(check bool) (fc.X.fc_subject ^ " fully certified") true
        (fc.X.fc_unproven = 0 && fc.X.fc_replay_ok))
    fcs;
  Alcotest.(check bool) "certified implies no cpi hijack" true
    (X.faults_consistent fcs)

let () =
  Alcotest.run "races"
    [ ( "static",
        [ t "lockset contexts on dcl" test_lockset_dcl;
          t "corpus verdicts" test_static_verdicts;
          t "separation certificates replay" test_separation_replay;
          t "golden levee-analyze/2 json" test_golden_json ] );
      ( "crossval",
        [ t "soundness over seeds 0..7" test_crossval_soundness;
          t "faults certification link" test_faults_link ] ) ]
