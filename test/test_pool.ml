(* Unit tests for the Domain worker pool and the run-journal round trip
   (the observability layer under bench/main.exe). *)

module Pool = Levee_support.Pool
module Journal = Levee_support.Journal

exception Boom of int

let results_testable =
  Alcotest.(list (result int Helpers.exn_testable))

let with_pool jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* Make early tasks slow so out-of-order completion is likely: result
   order must still match submission order. *)
let staggered_square n i =
  let spin = (n - i) * 10_000 in
  let acc = ref 0 in
  for k = 1 to spin do
    acc := (!acc + k) land 0xffff
  done;
  ignore !acc;
  i * i

let test_order jobs () =
  let xs = List.init 20 Fun.id in
  with_pool jobs (fun p ->
      let got = Pool.map p (staggered_square 20) xs in
      Alcotest.check results_testable "submission order"
        (List.map (fun i -> Ok (i * i)) xs)
        got)

(* Both paths: the inline jobs=1 pool and worker domains. *)
let test_exception_isolated () =
  List.iter
    (fun jobs ->
      let label = Printf.sprintf "jobs=%d %s" jobs in
      with_pool jobs (fun p ->
          let got =
            Pool.map p
              (fun i -> if i = 2 then raise (Boom i) else i + 100)
              [ 0; 1; 2; 3; 4 ]
          in
          Alcotest.check results_testable
            (label "raising task captured in its slot")
            [ Ok 100; Ok 101; Error (Boom 2); Ok 103; Ok 104 ]
            got;
          (* the pool must survive the exception and accept another batch *)
          let again = Pool.map p (fun i -> i * 2) [ 1; 2; 3 ] in
          Alcotest.check results_testable (label "pool not poisoned")
            [ Ok 2; Ok 4; Ok 6 ] again))
    [ 1; 4 ]

let test_matches_sequential () =
  let xs = List.init 57 (fun i -> (i * 7919) land 1023) in
  let f x = (x * x) + (x lsr 3) in
  let seq = List.map (fun x -> Ok (f x)) xs in
  with_pool 1 (fun p ->
      Alcotest.check results_testable "jobs=1 equals List.map" seq
        (Pool.map p f xs));
  with_pool 4 (fun p ->
      Alcotest.check results_testable "jobs=4 equals List.map" seq
        (Pool.map p f xs))

let test_empty_and_defaults () =
  with_pool 3 (fun p ->
      Alcotest.(check int) "size" 3 (Pool.jobs p);
      Alcotest.check results_testable "empty batch" [] (Pool.run p []));
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* ---------- journal round trip ---------- *)

let entry i : Journal.entry =
  { Journal.workload = Printf.sprintf "w%d \"quoted\"\n" i;
    protection = "cpi"; store = "two-level";
    outcome = (if i mod 2 = 0 then "exit(0)" else "trapped: bounds");
    status = i mod 2; cycles = 1000 + i; instrs = 900 + i;
    mem_ops = 40 * i; instrumented_mem_ops = 7 * i; store_accesses = 3 * i;
    store_footprint = 4096 + i; heap_peak = 2 * i; checksum = -i;
    checks_elided = 5 * i; mem_ops_demoted = i; threads = 1 + (i mod 3);
    ctx_switches = 6 * i; races = i mod 2; wall_us = 31337 * i }

let test_journal_roundtrip () =
  let j = Journal.create ~jobs:4 ~target:"table1" () in
  List.iter (fun i -> Journal.record j (entry i)) [ 0; 1; 2; 3; 4 ];
  let j' = Journal.of_json (Journal.to_json j) in
  Alcotest.(check string) "target" "table1" (Journal.target j');
  Alcotest.(check int) "jobs" 4 (Journal.jobs j');
  Alcotest.(check int) "entry count" 5 (List.length (Journal.entries j'));
  Alcotest.(check bool) "exact equality (wall included)" true
    (Journal.equal ~ignore_wall:false j j');
  Alcotest.(check int) "failures counted" 2
    (List.length (Journal.failures j'))

let test_journal_equal_modulo_wall () =
  let mk wall =
    let j = Journal.create ~target:"x" () in
    Journal.record j { (entry 1) with Journal.wall_us = wall };
    j
  in
  Alcotest.(check bool) "wall ignored by default" true
    (Journal.equal (mk 1) (mk 99));
  Alcotest.(check bool) "wall respected when asked" false
    (Journal.equal ~ignore_wall:false (mk 1) (mk 99))

let test_journal_rejects_garbage () =
  let bad s =
    match Journal.of_json s with
    | exception Failure _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "not json" true (bad "nonsense");
  Alcotest.(check bool) "wrong schema" true
    (bad "{\"schema\":\"other/9\",\"target\":\"t\",\"jobs\":1,\"entries\":[]}");
  Alcotest.(check bool) "truncated" true
    (bad "{\"schema\":\"levee-bench-journal/3\",\"target\":\"t\"");
  Alcotest.(check bool) "old schema version" true
    (bad
       "{\"schema\":\"levee-bench-journal/1\",\"target\":\"t\",\"jobs\":1,\
        \"entries\":[]}");
  (* Earlier versions have other entry fields (/2 lacks the thread
     counters, /4 still has attempts); the parser must not guess. *)
  Alcotest.(check bool) "schema version 2" true
    (bad
       "{\"schema\":\"levee-bench-journal/2\",\"target\":\"t\",\"jobs\":1,\
        \"entries\":[]}");
  Alcotest.(check bool) "previous schema version" true
    (bad
       "{\"schema\":\"levee-bench-journal/4\",\"target\":\"t\",\"jobs\":1,\
        \"entries\":[]}")

(* ---------- re-entrancy ---------- *)

let test_reentrant_rejected jobs () =
  with_pool jobs (fun p ->
      let got = Pool.run p [ (fun () -> Pool.run p [ (fun () -> 1) ]) ] in
      (match got with
       | [ Error (Invalid_argument msg) ] ->
         Alcotest.(check bool) "message names Pool.run" true
           (String.length msg >= 8 && String.sub msg 0 8 = "Pool.run")
       | _ -> Alcotest.fail "expected Error Invalid_argument");
      (* the pool survives the rejected call *)
      Alcotest.check results_testable "pool not poisoned" [ Ok 5 ]
        (Pool.map p (fun i -> i + 4) [ 1 ]))

let () =
  Alcotest.run "pool"
    [ ( "pool",
        [ Alcotest.test_case "order jobs=1" `Quick (test_order 1);
          Alcotest.test_case "order jobs=4" `Quick (test_order 4);
          Alcotest.test_case "exception isolated" `Quick
            test_exception_isolated;
          Alcotest.test_case "equals sequential map" `Quick
            test_matches_sequential;
          Alcotest.test_case "empty batch & defaults" `Quick
            test_empty_and_defaults ] );
      ( "re-entrancy",
        [ Alcotest.test_case "re-entrant run rejected jobs=1" `Quick
            (test_reentrant_rejected 1);
          Alcotest.test_case "re-entrant run rejected jobs=2" `Quick
            (test_reentrant_rejected 2) ] );
      ( "journal",
        [ Alcotest.test_case "round trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "equal modulo wall" `Quick
            test_journal_equal_modulo_wall;
          Alcotest.test_case "rejects garbage" `Quick
            test_journal_rejects_garbage ] ) ]
