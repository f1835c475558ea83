(* Run-store tests: encode/decode round-trips for every record schema
   the producers append (journal/4, perf/2, faults/2 and the generic
   history/1 envelope) over Rng-seeded field values, precise rejection
   of malformed/truncated JSONL, the append/load file contract, run
   selection, the regression gate, the one JSON printer every schema
   shares (Rng-seeded trees through both layouts, pinned layouts), and
   its canonical float formatter. *)

module R = Levee_support.Rng
module RS = Levee_support.Runstore
module J = Levee_support.Jsonenc
module Journal = Levee_support.Journal

(* ---------- generators ---------- *)

(* Strings stress the escaper: quotes, backslashes, newlines, tabs,
   control characters. *)
let string_alphabet =
  [| 'a'; 'b'; 'z'; 'Q'; '7'; '_'; '-'; '.'; '/'; ' '; '"'; '\\'; '\n';
     '\t'; '\x01'; '\x1f' |]

let rand_string rng =
  let n = R.int rng 12 in
  String.init n (fun _ -> R.pick rng string_alphabet)

let rand_int rng = R.range rng (-5) 10_000_000

(* One-decimal floats survive the %.1f dialect bit-for-bit. *)
let rand_float rng = float_of_int (R.range rng (-5000) 1_000_000) /. 10.0

let journal_fields =
  [ "cells"; "failures"; "cycles"; "instrs"; "mem_ops";
    "instrumented_mem_ops"; "store_accesses"; "checks_elided";
    "mem_ops_demoted"; "ctx_switches"; "races"; "checksum" ]

let perf_int_fields =
  [ "fuel_cap"; "cells"; "cells_wall_us"; "ripe_wall_us"; "sim_cycles";
    "sim_instrs"; "checks_elided"; "mem_ops_demoted" ]

let faults_fields =
  [ "runs"; "hijacked"; "trapped"; "crash"; "masked"; "benign";
    "fuel_exhausted"; "hijacked_vanilla"; "hijacked_cfi";
    "hijacked_cfi_type"; "hijacked_cpi"; "hijacked_cpi_crypt"; "cycles";
    "invariants_ok" ]

let gen_journal rng =
  RS.make ~schema:"levee-bench-journal/4" ~kind:"bench"
    ~commit:(rand_string rng) ~config:(rand_string rng)
    ~seed:(R.range rng (-3) 1000) ~wall_us:(R.int rng 1_000_000)
    (List.map (fun k -> (k, RS.Int (rand_int rng))) journal_fields)

let gen_perf rng =
  RS.make ~schema:"levee-bench-perf/3" ~kind:"perf"
    ~commit:(rand_string rng) ~config:"perf" ~wall_us:(R.int rng 1_000_000)
    (List.map (fun k -> (k, RS.Int (rand_int rng))) perf_int_fields
    @ [ ("cells_per_sec", RS.Float (rand_float rng)) ])

let gen_faults rng =
  RS.make ~schema:"levee-faults/3" ~kind:"faults" ~commit:(rand_string rng)
    ~config:(rand_string rng) ~seed:(R.int rng 10_000) ~wall_us:0
    (List.map (fun k -> (k, RS.Int (rand_int rng))) faults_fields)

(* The open envelope: arbitrary metric names and mixed value types,
   the shape future producers (p-latency histograms, ...) will use. *)
let gen_history rng =
  let n = 1 + R.int rng 8 in
  let metrics =
    List.init n (fun i ->
        let name = Printf.sprintf "%s_%d" (rand_string rng) i in
        let v =
          match R.int rng 3 with
          | 0 -> RS.Int (rand_int rng)
          | 1 -> RS.Float (rand_float rng)
          | _ -> RS.Str (rand_string rng)
        in
        (name, v))
  in
  RS.make ~schema:"levee-history/1" ~kind:(rand_string rng)
    ~commit:(rand_string rng) ~config:(rand_string rng)
    ~seed:(R.range rng (-100) 100_000) ~wall_us:(R.int rng 1_000_000)
    metrics

let has_float r =
  List.exists (fun (_, v) -> match v with RS.Float _ -> true | _ -> false)
    r.RS.metrics

(* ---------- round trips ---------- *)

let check_roundtrip what r =
  let line = RS.to_line r in
  match RS.of_line line with
  | Error e -> Alcotest.failf "%s: of_line rejected its own bytes: %s" what e
  | Ok r' ->
    Alcotest.(check string) (what ^ ": re-encoded line") line (RS.to_line r');
    Alcotest.(check bool) (what ^ ": key preserved") true (RS.key r = RS.key r');
    (* One-decimal floats are exact in both directions, so the decoded
       record is structurally identical, not just byte-identical. *)
    Alcotest.(check bool) (what ^ ": record preserved") true (r = r');
    ignore (has_float r)

let test_roundtrip_all_schemas () =
  List.iter
    (fun seed ->
      let rng = R.create seed in
      check_roundtrip "journal/4" (gen_journal rng);
      check_roundtrip "perf/2" (gen_perf rng);
      check_roundtrip "faults/2" (gen_faults rng);
      check_roundtrip "history/1" (gen_history rng))
    (List.init 50 (fun i -> 1000 + (i * 7)))

(* ---------- the printer ---------- *)

(* Random trees over every constructor: strings from the escaper's
   alphabet, one-decimal floats, objects and arrays nested to [depth]. *)
let rec rand_json rng depth =
  match R.int rng (if depth = 0 then 5 else 7) with
  | 0 -> J.Jstr (rand_string rng)
  | 1 -> J.Jint (rand_int rng)
  | 2 -> J.Jfloat (rand_float rng)
  | 3 -> J.Jbool (R.int rng 2 = 0)
  | 4 -> J.Jnull
  | 5 -> J.Jlist (List.init (R.int rng 4) (fun _ -> rand_json rng (depth - 1)))
  | _ -> rand_obj rng (depth - 1)

and rand_obj rng depth =
  J.Jobj
    (List.init (R.int rng 5) (fun _ -> (rand_string rng, rand_json rng depth)))

let test_printer_roundtrip_seeded () =
  List.iter
    (fun seed ->
      let rng = R.create seed in
      for _ = 1 to 20 do
        let doc = rand_obj rng 3 and v = rand_json rng 3 in
        Alcotest.(check bool) "parse inverts the document printer" true
          (J.parse (J.to_document doc) = doc);
        Alcotest.(check bool) "parse inverts the one-line printer" true
          (J.parse (J.to_line v) = v);
        Alcotest.(check bool) "one-line output has no newline" false
          (String.contains (J.to_line v) '\n')
      done)
    (List.init 50 (fun i -> 2000 + (i * 13)))

let test_printer_layouts () =
  let ints l = J.Jlist (List.map (fun i -> J.Jint i) l) in
  Alcotest.(check string) "a member array prints one element per line"
    "{\n\"a\":[\n1,\n{\"b\":[\n2\n]}\n]\n}\n"
    (J.to_document
       (J.Jobj [ ("a", J.Jlist [ J.Jint 1; J.Jobj [ ("b", ints [ 2 ]) ] ]) ]));
  Alcotest.(check string) "a nested array prints inline"
    "{\n\"h\":[\n[1,2],\n[3,[]]\n]\n}\n"
    (J.to_document
       (J.Jobj
          [ ( "h",
              J.Jlist [ ints [ 1; 2 ]; J.Jlist [ J.Jint 3; J.Jlist [] ] ] ) ]));
  Alcotest.(check string) "an empty member array prints as [\\n\\n]"
    "{\n\"s\":\"x\",\n\"e\":[\n\n]\n}\n"
    (J.to_document (J.Jobj [ ("s", J.Jstr "x"); ("e", J.Jlist []) ]));
  Alcotest.(check string) "a non-finite float prints as 0.0"
    "{\"n\":0.0,\"i\":0.0,\"m\":[0.0]}"
    (J.to_line
       (J.Jobj
          [ ("n", J.Jfloat nan); ("i", J.Jfloat infinity);
            ("m", J.Jlist [ J.Jfloat neg_infinity ]) ]))

(* ---------- malformed input ---------- *)

let expect_error what line =
  match RS.of_line line with
  | Ok _ -> Alcotest.failf "%s: expected rejection, got Ok" what
  | Error msg ->
    Alcotest.(check bool)
      (what ^ ": error message is non-empty") true
      (String.length msg > 0)

let test_truncated_rejected () =
  let rng = R.create 99 in
  let r = gen_journal rng in
  let line = RS.to_line r in
  (* Every proper prefix is a truncated record: a precise Error, never
     an exception, never a bogus Ok. *)
  List.iter
    (fun cut ->
      expect_error
        (Printf.sprintf "truncated at %d" cut)
        (String.sub line 0 cut))
    [ 1; String.length line / 4; String.length line / 2;
      String.length line - 1 ]

let test_malformed_rejected () =
  let good = RS.to_line (gen_perf (R.create 7)) in
  expect_error "empty line is no record" "{}";
  expect_error "trailing garbage" (good ^ "}");
  expect_error "not JSON" "truncated{";
  expect_error "array, not object" "[1,2,3]";
  (* wrong envelope version: parseable JSON, still rejected *)
  (match
     RS.of_line
       "{\"v\":\"levee-history/0\",\"schema\":\"x\",\"kind\":\"k\",\
        \"commit\":\"c\",\"config\":\"g\",\"seed\":0,\"wall_us\":0,\
        \"metrics\":{}}"
   with
   | Ok _ -> Alcotest.fail "unknown version accepted"
   | Error msg ->
     Alcotest.(check bool) "version named in error" true
       (String.length msg > 0
       && String.sub msg 0 7 = "unknown"));
  expect_error "metrics must be an object"
    "{\"v\":\"levee-history/1\",\"schema\":\"x\",\"kind\":\"k\",\
     \"commit\":\"c\",\"config\":\"g\",\"seed\":0,\"wall_us\":0,\
     \"metrics\":[1]}";
  expect_error "missing seed"
    "{\"v\":\"levee-history/1\",\"schema\":\"x\",\"kind\":\"k\",\
     \"commit\":\"c\",\"config\":\"g\",\"wall_us\":0,\"metrics\":{}}"

(* ---------- the file contract ---------- *)

let with_store f =
  let path = Filename.temp_file "runstore" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_append_load () =
  with_store (fun path ->
      Sys.remove path;
      (match RS.load ~path () with
       | Error _ -> ()
       | Ok _ -> Alcotest.fail "missing store should be an error");
      let rng = R.create 5 in
      let r1 = gen_journal rng and r2 = gen_faults rng in
      RS.append ~path r1;
      RS.append ~path r2;
      match RS.load ~path () with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok rs ->
        Alcotest.(check bool) "append order preserved" true (rs = [ r1; r2 ]))

let test_load_reports_bad_line () =
  with_store (fun path ->
      let rng = R.create 6 in
      RS.append ~path (gen_journal rng);
      RS.append ~path (gen_perf rng);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"v\":\"levee-history/1\",\"schema\":\"trunc";
      close_out oc;
      match RS.load ~path () with
      | Ok _ -> Alcotest.fail "corrupt tail line accepted"
      | Error msg ->
        let expected = Printf.sprintf "%s:3:" path in
        Alcotest.(check bool)
          (Printf.sprintf "error pinpoints line 3 (%s)" msg)
          true
          (String.length msg >= String.length expected
          && String.sub msg 0 (String.length expected) = expected))

let test_find_specs () =
  let rng = R.create 8 in
  let mk config seed =
    RS.make ~schema:"s/1" ~kind:"k" ~commit:"c" ~config ~seed
      [ ("cycles", RS.Int (rand_int rng)) ]
  in
  let rs = [ mk "alpha" 0; mk "beta" 1; mk "alpha" 2 ] in
  let get spec =
    match RS.find rs spec with
    | Ok r -> r
    | Error e -> Alcotest.failf "find %s: %s" spec e
  in
  Alcotest.(check int) "index 1" 1 (get "1").RS.seed;
  Alcotest.(check int) "negative index" 2 (get "-1").RS.seed;
  Alcotest.(check int) "last" 2 (get "last").RS.seed;
  Alcotest.(check int) "prev" 1 (get "prev").RS.seed;
  Alcotest.(check int) "config picks most recent" 2 (get "alpha").RS.seed;
  (match RS.find rs "7" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "out-of-range index accepted");
  (match RS.find rs "nosuch" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown config accepted")

(* ---------- the regression gate ---------- *)

let rec_with_cycles ?(wall = 0) cycles =
  RS.make ~schema:"levee-bench-journal/4" ~kind:"bench" ~commit:"c"
    ~config:"g" ~wall_us:wall
    [ ("cycles", RS.Int cycles); ("races", RS.Int 0) ]

let test_gate_flags_cycle_regression () =
  (* 10% > the 5% default tolerance: the gate must fire and must name
     the offending field. *)
  let vs = RS.gate (rec_with_cycles 1000) (rec_with_cycles 1100) in
  (match vs with
   | [ v ] ->
     Alcotest.(check string) "offending field named" "cycles" v.RS.vfield;
     Alcotest.(check bool) "tolerance carried" true (v.RS.vtol = 5.0);
     Alcotest.(check bool) "delta is +10%" true (abs_float (v.RS.vpct -. 10.0) < 1e-9)
   | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs));
  let human = RS.gate_human vs in
  Alcotest.(check bool) "human verdict says FAIL + field" true
    (String.length human >= 10
    && String.sub human 0 10 = "gate: FAIL"
    && String.length human
       > (match String.index_opt human '\n' with Some i -> i | None -> 0))

let test_gate_within_tolerance_passes () =
  Alcotest.(check bool) "3% cycle delta passes" true
    (RS.gate (rec_with_cycles 1000) (rec_with_cycles 1030) = []);
  Alcotest.(check bool) "improvements beyond tolerance still flagged" true
    (RS.gate (rec_with_cycles 1000) (rec_with_cycles 500) <> []);
  Alcotest.(check bool) "zero-to-zero wall passes" true
    (RS.gate (rec_with_cycles ~wall:0 1000) (rec_with_cycles ~wall:0 1000) = [])

let test_gate_wall_clock () =
  let vs =
    RS.gate (rec_with_cycles ~wall:1000 100) (rec_with_cycles ~wall:2000 100)
  in
  (match vs with
   | [ v ] -> Alcotest.(check string) "wall_us gated" "wall_us" v.RS.vfield
   | _ -> Alcotest.fail "expected one wall_us violation");
  Alcotest.(check bool) "49% wall delta within default 50%" true
    (RS.gate (rec_with_cycles ~wall:1000 100) (rec_with_cycles ~wall:1490 100)
    = [])

let test_gate_tolerance_override () =
  let a = rec_with_cycles 1000 and b = rec_with_cycles 2000 in
  Alcotest.(check bool) "default tolerance fires" true (RS.gate a b <> []);
  (* blessing an intentional regression: a first-match override *)
  let tolerances = ("cycles", 200.0) :: RS.default_tolerances in
  Alcotest.(check bool) "blessed by --tol override" true
    (RS.gate ~tolerances a b = []);
  (* ungated fields never fire, whatever the delta *)
  let big_races =
    RS.make ~schema:"s/1" ~kind:"k" ~commit:"c" ~config:"g"
      [ ("cycles", RS.Int 1000); ("races", RS.Int 999) ]
  in
  Alcotest.(check bool) "races not gated by default" true
    (RS.gate (rec_with_cycles 1000) big_races = [])

(* ---------- journal projection ---------- *)

let entry workload cycles wall : Journal.entry =
  { Journal.workload; protection = "cpi"; store = "array";
    outcome = "exit(0)"; status = 0; cycles; instrs = 2 * cycles;
    mem_ops = 3; instrumented_mem_ops = 1; store_accesses = 4;
    store_footprint = 5; heap_peak = 6; checksum = 7; checks_elided = 8;
    mem_ops_demoted = 9; threads = 1; ctx_switches = 0; races = 0;
    wall_us = wall }

let test_journal_to_record () =
  let j = Journal.create ~jobs:2 ~target:"table1" () in
  Journal.record j (entry "a" 100 7);
  Journal.record j (entry "b" 250 9);
  let r = Journal.to_record ~kind:"bench" ~commit:"c0" j in
  Alcotest.(check string) "config is the target" "table1" r.RS.config;
  Alcotest.(check bool) "cells" true
    (List.assoc "cells" r.RS.metrics = RS.Int 2);
  Alcotest.(check bool) "cycles summed" true
    (List.assoc "cycles" r.RS.metrics = RS.Int 350);
  Alcotest.(check bool) "checks_elided summed" true
    (List.assoc "checks_elided" r.RS.metrics = RS.Int 16);
  Alcotest.(check int) "wall summed" 16 r.RS.wall_us

(* ---------- the float dialect ---------- *)

let test_float_str_pinned () =
  let check expected v =
    Alcotest.(check string)
      (Printf.sprintf "float_str %h" v)
      expected (J.float_str v)
  in
  check "0.0" 0.0;
  check "0.0" (-0.0);                 (* negative zero normalized *)
  check "0.0" nan;                    (* non-finite collapses *)
  check "0.0" infinity;
  check "0.0" neg_infinity;
  check "-2.4" (-2.4);
  check "-12.5" (-12.5);
  check "197.4" 197.4;
  check "1000000000000000.0" 1e15;    (* large, still fixed-point *)
  check "-1000000000000000.0" (-1e15);
  Alcotest.(check string) "the printer uses the dialect"
    "{\"cells_per_sec\":197.4}"
    (J.to_line (J.Jobj [ ("cells_per_sec", J.Jfloat 197.4) ]))

let test_float_roundtrip_seeded () =
  List.iter
    (fun seed ->
      let rng = R.create seed in
      for _ = 1 to 200 do
        let f = rand_float rng in
        let s = J.float_str f in
        Alcotest.(check string)
          (Printf.sprintf "re-parse of %s is stable" s)
          s
          (J.float_str (float_of_string s))
      done)
    [ 11; 12; 13 ]

let () =
  Alcotest.run "runstore"
    [ ( "roundtrip",
        [ Alcotest.test_case "all record schemas, 50 seeds" `Quick
            test_roundtrip_all_schemas ] );
      ( "printer",
        [ Alcotest.test_case "parse inverts both layouts, 50 seeds" `Quick
            test_printer_roundtrip_seeded;
          Alcotest.test_case "pinned layouts" `Quick test_printer_layouts ] );
      ( "malformed",
        [ Alcotest.test_case "truncated lines rejected" `Quick
            test_truncated_rejected;
          Alcotest.test_case "malformed lines rejected" `Quick
            test_malformed_rejected;
          Alcotest.test_case "load pinpoints the bad line" `Quick
            test_load_reports_bad_line ] );
      ( "store",
        [ Alcotest.test_case "append/load order" `Quick test_append_load;
          Alcotest.test_case "run specs" `Quick test_find_specs ] );
      ( "gate",
        [ Alcotest.test_case "cycle regression flagged" `Quick
            test_gate_flags_cycle_regression;
          Alcotest.test_case "within tolerance passes" `Quick
            test_gate_within_tolerance_passes;
          Alcotest.test_case "wall-clock gated at 50%" `Quick
            test_gate_wall_clock;
          Alcotest.test_case "tolerance overrides / ungated fields" `Quick
            test_gate_tolerance_override ] );
      ( "journal",
        [ Alcotest.test_case "aggregate projection" `Quick
            test_journal_to_record ] );
      ( "floats",
        [ Alcotest.test_case "pinned dialect" `Quick test_float_str_pinned;
          Alcotest.test_case "seeded stability" `Quick
            test_float_roundtrip_seeded ] ) ]
