(* Determinism regression: the cost model is fully deterministic, so the
   table1 computation must produce identical cycle counts and identical
   journals whether it runs sequentially or fanned out over domains, and
   across repeated runs. Fuel is clamped so the whole matrix stays cheap;
   fuel-exhausted cells are themselves deterministic. *)

module Engine = Levee_harness.Engine
module Targets = Levee_harness.Targets
module Journal = Levee_support.Journal

let fuel_cap = 150_000

let run_table1 ~jobs =
  let e = Engine.create ~fuel_cap ~jobs () in
  let j = Journal.create ~jobs ~target:"table1" () in
  Engine.set_journal e (Some j);
  Engine.prefetch e (Targets.table1 ());
  Engine.set_journal e None;
  Engine.shutdown e;
  j

let cycles j = List.map (fun (e : Journal.entry) -> e.Journal.cycles) j

let keys j =
  List.map
    (fun (e : Journal.entry) ->
      (e.Journal.workload, e.Journal.protection, e.Journal.store))
    j

let test_determinism () =
  let j1a = run_table1 ~jobs:1 in
  let j1b = run_table1 ~jobs:1 in
  let j4a = run_table1 ~jobs:4 in
  let j4b = run_table1 ~jobs:4 in
  Alcotest.(check bool) "non-empty" true (Journal.entries j1a <> []);
  Alcotest.(check (list int)) "jobs=1 rerun: identical cycles"
    (cycles (Journal.entries j1a))
    (cycles (Journal.entries j1b));
  Alcotest.(check (list int)) "jobs=4 rerun: identical cycles"
    (cycles (Journal.entries j4a))
    (cycles (Journal.entries j4b));
  Alcotest.(check (list int)) "jobs=1 vs jobs=4: identical cycles"
    (cycles (Journal.entries j1a))
    (cycles (Journal.entries j4a));
  Alcotest.(check bool) "jobs=1 journals equal modulo wall-clock" true
    (Journal.equal j1a j1b);
  Alcotest.(check bool) "jobs=1 vs jobs=4 journals equal modulo wall-clock"
    true
    (Journal.equal j1a j4a);
  Alcotest.(check bool) "jobs=4 journals equal modulo wall-clock" true
    (Journal.equal j4a j4b);
  (* same cells, same canonical order, whatever the scheduling did *)
  Alcotest.(check bool) "cell order is canonical" true
    (keys (Journal.entries j1a) = keys (Journal.entries j4a))

(* The journal must also survive a disk round trip unchanged: what a
   future trajectory-comparison job reads equals what this run measured. *)
let test_journal_disk_roundtrip () =
  let j = run_table1 ~jobs:2 in
  let j' = Journal.of_json (Journal.to_json j) in
  Alcotest.(check bool) "parse (to_json j) = j" true
    (Journal.equal ~ignore_wall:false j j')

(* ---------- Golden values ----------

   The tables below were captured from the seed interpreter (the
   pre-decode-once tree) and pin the simulation down to absolute values:
   cycles, instructions, memory operations, safe-store accesses, the
   output checksum, an MD5 of the program output, and the outcome string.
   The decode-once interpreter, the page-cached memory, and any future
   perf work must reproduce every row bit-for-bit — only host wall-clock
   is allowed to change. Row format:

     (workload, protection, store,
      cycles, instrs, mem_ops, store_accesses, checksum, output_md5, outcome)
*)

module P = Levee_core.Pipeline
module W = Levee_workloads
module M = Levee_machine

type golden_row =
  string * string * string * int * int * int * int * int * string * string

(* W.Spec.all x (vanilla, safestack, cps, cpi), fuel clamped to 150_000. *)
let golden_fuel_capped : golden_row list =
  [
    ("400.perlbench", "vanilla", "array", 251601, 150000, 71930, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("400.perlbench", "safestack", "array", 251601, 150000, 71930, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("400.perlbench", "cps", "array", 258065, 150000, 71930, 3242, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("400.perlbench", "cpi", "array", 261297, 150000, 71930, 3242, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("401.bzip2", "vanilla", "array", 235375, 150000, 67447, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("401.bzip2", "safestack", "array", 235375, 150000, 67447, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("401.bzip2", "cps", "array", 235375, 150000, 67447, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("401.bzip2", "cpi", "array", 235375, 150000, 67447, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("403.gcc", "vanilla", "array", 232968, 150000, 67847, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("403.gcc", "safestack", "array", 232968, 150000, 67847, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("403.gcc", "cps", "array", 234798, 150000, 67847, 915, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("403.gcc", "cpi", "array", 241652, 150000, 67847, 3076, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("429.mcf", "vanilla", "array", 252835, 150000, 72343, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("429.mcf", "safestack", "array", 252835, 150000, 72343, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("429.mcf", "cps", "array", 252835, 150000, 72343, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("429.mcf", "cpi", "array", 252835, 150000, 72343, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("433.milc", "vanilla", "array", 252002, 150000, 59999, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("433.milc", "safestack", "array", 252006, 150000, 59999, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("433.milc", "cps", "array", 252006, 150000, 59999, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("433.milc", "cpi", "array", 252006, 150000, 59999, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("444.namd", "vanilla", "array", 243450, 150000, 77731, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("444.namd", "safestack", "array", 233691, 150000, 77731, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("444.namd", "cps", "array", 233691, 150000, 77731, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("444.namd", "cpi", "array", 233691, 150000, 77731, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("445.gobmk", "vanilla", "array", 223008, 150000, 70473, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("445.gobmk", "safestack", "array", 223008, 150000, 70473, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("445.gobmk", "cps", "array", 223008, 150000, 70473, 3, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("445.gobmk", "cpi", "array", 223008, 150000, 70473, 3, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("447.dealII", "vanilla", "array", 257021, 150000, 70604, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("447.dealII", "safestack", "array", 257021, 150000, 70604, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("447.dealII", "cps", "array", 263181, 150000, 70604, 3084, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("447.dealII", "cpi", "array", 267173, 150000, 70604, 3388, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("450.soplex", "vanilla", "array", 238142, 150000, 65837, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("450.soplex", "safestack", "array", 238142, 150000, 65837, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("450.soplex", "cps", "array", 238270, 150000, 65837, 64, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("450.soplex", "cpi", "array", 238334, 150000, 65837, 64, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("453.povray", "vanilla", "array", 232318, 150000, 76861, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("453.povray", "safestack", "array", 232318, 150000, 76861, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("453.povray", "cps", "array", 233200, 150000, 76861, 445, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("453.povray", "cpi", "array", 236380, 150000, 76861, 1358, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("456.hmmer", "vanilla", "array", 255314, 150000, 66742, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("456.hmmer", "safestack", "array", 255314, 150000, 66742, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("456.hmmer", "cps", "array", 255314, 150000, 66742, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("456.hmmer", "cpi", "array", 255314, 150000, 66742, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("458.sjeng", "vanilla", "array", 214547, 150000, 61971, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("458.sjeng", "safestack", "array", 215119, 150000, 61971, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("458.sjeng", "cps", "array", 215119, 150000, 61971, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("458.sjeng", "cpi", "array", 215119, 150000, 61971, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("462.libquantum", "vanilla", "array", 223384, 150000, 73343, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("462.libquantum", "safestack", "array", 223384, 150000, 73343, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("462.libquantum", "cps", "array", 223384, 150000, 73343, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("462.libquantum", "cpi", "array", 223384, 150000, 73343, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("464.h264ref", "vanilla", "array", 260003, 150000, 63332, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("464.h264ref", "safestack", "array", 260003, 150000, 63332, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("464.h264ref", "cps", "array", 260003, 150000, 63332, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("464.h264ref", "cpi", "array", 260003, 150000, 63332, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("470.lbm", "vanilla", "array", 217690, 150000, 67685, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("470.lbm", "safestack", "array", 217690, 150000, 67685, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("470.lbm", "cps", "array", 217690, 150000, 67685, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("470.lbm", "cpi", "array", 217690, 150000, 67685, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("471.omnetpp", "vanilla", "array", 247965, 150000, 77070, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("471.omnetpp", "safestack", "array", 247965, 150000, 77070, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("471.omnetpp", "cps", "array", 253275, 150000, 77070, 2176, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("471.omnetpp", "cpi", "array", 289926, 150000, 77070, 14150, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("473.astar", "vanilla", "array", 235393, 150000, 67895, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("473.astar", "safestack", "array", 235393, 150000, 67895, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("473.astar", "cps", "array", 235393, 150000, 67895, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("473.astar", "cpi", "array", 235393, 150000, 67895, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("482.sphinx3", "vanilla", "array", 256743, 150000, 61882, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("482.sphinx3", "safestack", "array", 256743, 150000, 61882, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("482.sphinx3", "cps", "array", 256743, 150000, 61882, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("482.sphinx3", "cpi", "array", 256743, 150000, 61882, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("483.xalancbmk", "vanilla", "array", 266266, 150000, 72222, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("483.xalancbmk", "safestack", "array", 266266, 150000, 72222, 0, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("483.xalancbmk", "cps", "array", 270832, 150000, 72222, 2287, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
    ("483.xalancbmk", "cpi", "array", 303538, 150000, 72222, 10424, 0, "d41d8cd98f00b204e9800998ecf8427e", "fuel exhausted");
  ]

(* Full default fuel: every run exits cleanly, so these rows also pin the
   complete program output (via MD5) and final checksum. *)
let golden_full_fuel : golden_row list =
  [
    ("483.xalancbmk", "vanilla", "array", 1024860, 576665, 278311, 0, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("483.xalancbmk", "safestack", "array", 1024860, 576665, 278311, 0, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("483.xalancbmk", "cps", "array", 1042914, 576665, 278311, 9031, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("483.xalancbmk", "cpi", "array", 1169278, 576665, 278311, 40472, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("git", "vanilla", "array", 3155190, 2195895, 929173, 0, 194268, "61adda0deb7e25d738f927696135f478", "exit(0)");
    ("git", "safestack", "array", 3155190, 2195895, 929173, 0, 194268, "61adda0deb7e25d738f927696135f478", "exit(0)");
    ("git", "cps", "array", 3155190, 2195895, 929173, 0, 194268, "61adda0deb7e25d738f927696135f478", "exit(0)");
    ("git", "cpi", "array", 3155190, 2195895, 929173, 0, 194268, "61adda0deb7e25d738f927696135f478", "exit(0)");
    ("sqlite", "vanilla", "array", 4988272, 2955436, 1398163, 0, 12159354, "4b58051e4711eafaeb74563a4adea5fa", "exit(0)");
    ("sqlite", "safestack", "array", 4988272, 2955436, 1398163, 0, 12159354, "4b58051e4711eafaeb74563a4adea5fa", "exit(0)");
    ("sqlite", "cps", "array", 4988272, 2955436, 1398163, 0, 12159354, "4b58051e4711eafaeb74563a4adea5fa", "exit(0)");
    ("sqlite", "cpi", "array", 4988272, 2955436, 1398163, 0, 12159354, "4b58051e4711eafaeb74563a4adea5fa", "exit(0)");
    ("403.gcc", "vanilla", "array", 5126956, 3281377, 1478496, 0, 14539704, "ebaf418a550bb837df92b7b04fa8af6d", "exit(0)");
    ("403.gcc", "safestack", "array", 5126956, 3281377, 1478496, 0, 14539704, "ebaf418a550bb837df92b7b04fa8af6d", "exit(0)");
    ("403.gcc", "cps", "array", 5177056, 3281377, 1478496, 25050, 14539704, "ebaf418a550bb837df92b7b04fa8af6d", "exit(0)");
    ("403.gcc", "cpi", "array", 5365043, 3281377, 1478496, 84489, 14539704, "ebaf418a550bb837df92b7b04fa8af6d", "exit(0)");
    ("web-static", "vanilla", "array", 3027758, 1430468, 607950, 0, 16685065, "21bd0b686c57d1db88153adf99818d4a", "exit(0)");
    ("web-static", "safestack", "array", 3027758, 1430468, 607950, 0, 16685065, "21bd0b686c57d1db88153adf99818d4a", "exit(0)");
    ("web-static", "cps", "array", 3059758, 1430468, 607950, 16004, 16685065, "21bd0b686c57d1db88153adf99818d4a", "exit(0)");
    ("web-static", "cpi", "array", 3456072, 1430468, 607950, 396318, 16685065, "21bd0b686c57d1db88153adf99818d4a", "exit(0)");
    ("400.perlbench", "vanilla", "array", 6455080, 3719740, 1936935, 0, 79151099, "46b7aad30305a5d0fe02bc87b8b27ad1", "exit(0)");
    ("400.perlbench", "safestack", "array", 6455080, 3719740, 1936935, 0, 79151099, "46b7aad30305a5d0fe02bc87b8b27ad1", "exit(0)");
    ("400.perlbench", "cps", "array", 6680680, 3719740, 1936935, 112810, 79151099, "46b7aad30305a5d0fe02bc87b8b27ad1", "exit(0)");
    ("400.perlbench", "cpi", "array", 6793480, 3719740, 1936935, 112810, 79151099, "46b7aad30305a5d0fe02bc87b8b27ad1", "exit(0)");
  ]

(* Other protections and safe-store organisations over two workloads. *)
let golden_extended : golden_row list =
  [
    ("483.xalancbmk", "softbound", "array", 2054882, 576665, 278311, 157804, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("483.xalancbmk", "cfi", "array", 1051941, 576665, 278311, 0, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("483.xalancbmk", "cookies", "array", 1024860, 576665, 278311, 0, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("483.xalancbmk", "dep+aslr+cookies", "array", 1024860, 576665, 278311, 0, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("483.xalancbmk", "cpi-debug", "array", 1173170, 576665, 278311, 40472, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("483.xalancbmk", "cpi", "two-level", 1250214, 576665, 278311, 40472, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("483.xalancbmk", "cpi", "hashtable", 1412086, 576665, 278311, 40472, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("483.xalancbmk", "cpi", "mpx", 1128810, 576665, 278311, 40472, 314730, "44b9758e76739563fe116a0188ea5a53", "exit(0)");
    ("400.perlbench", "softbound", "array", 10667350, 3719740, 1936935, 112810, 79151099, "46b7aad30305a5d0fe02bc87b8b27ad1", "exit(0)");
    ("400.perlbench", "cpi-debug", "array", 6793480, 3719740, 1936935, 112810, 79151099, "46b7aad30305a5d0fe02bc87b8b27ad1", "exit(0)");
  ]

let run_row ?fuel ?(sched_seed = 0) name prot impl : golden_row =
  let w =
    match
      List.find_opt
        (fun (w : W.Workload.t) -> w.W.Workload.name = name)
        (W.Spec.all @ W.Phoronix.all @ W.Webstack.all
        @ [ W.Webstack.concurrent ~threads:2;
            W.Webstack.concurrent ~threads:4 ])
    with
    | Some w -> w
    | None -> Alcotest.failf "unknown workload %s" name
  in
  let b = P.build ~store_impl:impl prot (W.Workload.compile w) in
  let fuel = match fuel with Some f -> f | None -> w.W.Workload.fuel in
  let r =
    M.Interp.run_program ~input:w.W.Workload.input ~fuel ~sched_seed b.P.prog
      b.P.config
  in
  ( name, P.protection_name prot, M.Safestore.impl_name impl,
    r.M.Interp.cycles, r.M.Interp.instrs, r.M.Interp.mem_ops,
    r.M.Interp.store_accesses, r.M.Interp.checksum,
    Digest.to_hex (Digest.string r.M.Interp.output),
    M.Trap.outcome_to_string r.M.Interp.outcome )

let row_to_string
    (name, prot, store, cycles, instrs, mem_ops, accesses, ck, md5, outcome) =
  Printf.sprintf "%s/%s/%s cycles=%d instrs=%d mem=%d store=%d ck=%d md5=%s %s"
    name prot store cycles instrs mem_ops accesses ck md5 outcome

(* Set LEVEE_GOLDEN_DUMP=1 to print the freshly measured rows as OCaml
   literals instead of checking them, for re-capturing the tables after a
   sanctioned cost-model or instrumentation change. Review the diff before
   committing: output MD5s, checksums and outcomes should only move when
   the change is supposed to alter program behaviour. *)
let check_rows what expected actual =
  if Sys.getenv_opt "LEVEE_GOLDEN_DUMP" <> None then begin
    Printf.printf "(* %s *)\n" what;
    List.iter
      (fun (name, prot, store, cycles, instrs, mem_ops, accesses, ck, md5,
            outcome) ->
        Printf.printf "    (%S, %S, %S, %d, %d, %d, %d, %d, %S, %S);\n" name
          prot store cycles instrs mem_ops accesses ck md5 outcome)
      actual
  end
  else
    Alcotest.(check (list string)) what
      (List.map row_to_string expected)
      (List.map row_to_string actual)

let t1_protections = [ P.Vanilla; P.Safe_stack; P.Cps; P.Cpi ]

let test_golden_fuel_capped () =
  let actual =
    List.concat_map
      (fun (w : W.Workload.t) ->
        List.map
          (fun p ->
            run_row ~fuel:150_000 w.W.Workload.name p M.Safestore.Simple_array)
          t1_protections)
      W.Spec.all
  in
  check_rows "fuel-capped golden rows" golden_fuel_capped actual

let test_golden_full_fuel () =
  let actual =
    List.concat_map
      (fun name ->
        List.map (fun p -> run_row name p M.Safestore.Simple_array)
          t1_protections)
      [ "483.xalancbmk"; "git"; "sqlite"; "403.gcc"; "web-static";
        "400.perlbench" ]
  in
  check_rows "full-fuel golden rows" golden_full_fuel actual

(* Concurrent web workload, deterministic scheduler seed 3: pins the
   multithreaded machine — preemption points, context-switch charges,
   blocking mutex/join retries — across thread counts and safe-store
   organisations. Checksums must match the single-threaded drain (the
   workload is commutative), so only cycles/instrs may differ per store. *)
let golden_concurrent : golden_row list =
  [
    ("web-conc-t2", "vanilla", "array", 484943, 262983, 115263, 0, 2855742, "39df63e3ec81bb9a2c2e7bb169188a33", "exit(0)");
    ("web-conc-t2", "cpi", "array", 492143, 262983, 115263, 2404, 2855742, "39df63e3ec81bb9a2c2e7bb169188a33", "exit(0)");
    ("web-conc-t2", "cpi", "two-level", 496943, 262983, 115263, 2404, 2855742, "39df63e3ec81bb9a2c2e7bb169188a33", "exit(0)");
    ("web-conc-t2", "cpi", "hashtable", 506543, 262983, 115263, 2404, 2855742, "39df63e3ec81bb9a2c2e7bb169188a33", "exit(0)");
    ("web-conc-t4", "vanilla", "array", 489782, 263140, 115311, 0, 2855742, "39df63e3ec81bb9a2c2e7bb169188a33", "exit(0)");
    ("web-conc-t4", "cpi", "array", 496982, 263140, 115311, 2404, 2855742, "39df63e3ec81bb9a2c2e7bb169188a33", "exit(0)");
    ("web-conc-t4", "cpi", "two-level", 501782, 263140, 115311, 2404, 2855742, "39df63e3ec81bb9a2c2e7bb169188a33", "exit(0)");
    ("web-conc-t4", "cpi", "hashtable", 511382, 263140, 115311, 2404, 2855742, "39df63e3ec81bb9a2c2e7bb169188a33", "exit(0)");
  ]

let conc_cells =
  [ ("web-conc-t2", P.Vanilla, M.Safestore.Simple_array);
    ("web-conc-t2", P.Cpi, M.Safestore.Simple_array);
    ("web-conc-t2", P.Cpi, M.Safestore.Two_level);
    ("web-conc-t2", P.Cpi, M.Safestore.Hashtable);
    ("web-conc-t4", P.Vanilla, M.Safestore.Simple_array);
    ("web-conc-t4", P.Cpi, M.Safestore.Simple_array);
    ("web-conc-t4", P.Cpi, M.Safestore.Two_level);
    ("web-conc-t4", P.Cpi, M.Safestore.Hashtable) ]

let test_golden_concurrent () =
  let actual =
    List.map
      (fun (name, prot, impl) -> run_row ~sched_seed:3 name prot impl)
      conc_cells
  in
  check_rows "concurrent golden rows" golden_concurrent actual

let test_golden_extended () =
  let actual =
    List.map
      (fun prot -> run_row "483.xalancbmk" prot M.Safestore.Simple_array)
      [ P.Softbound; P.Cfi; P.Cookies; P.Hardened; P.Cpi_debug ]
    @ List.map
        (fun impl -> run_row "483.xalancbmk" P.Cpi impl)
        [ M.Safestore.Two_level; M.Safestore.Hashtable; M.Safestore.Mpx ]
    @ List.map
        (fun prot -> run_row "400.perlbench" prot M.Safestore.Simple_array)
        [ P.Softbound; P.Cpi_debug ]
  in
  check_rows "extended golden rows" golden_extended actual

(* ---------- Instrumentation digests ----------

   One MD5 per protection over what the passes produce for the 41 bundled
   workloads and the example MiniC programs, in a fixed order: the printed
   IR, the static statistics, the cpi-crypt re-encryption masks and every
   call's CFI target set (the printer omits the sets, so without them cfi
   and cfi-type would hash equal). A refactor of the passes must leave
   every digest unchanged. LEVEE_GOLDEN_DUMP=1 prints the fresh digests
   instead of checking them. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog
module Stats = Levee_core.Stats

let digest_examples =
  [ "annotated.c"; "badcast.c"; "conc.c"; "datalist.c"; "dcl.c";
    "dispatch.c"; "fptr_zoo.c"; "guarded_web.c"; "opaque.c";
    "racy_counter.c"; "strings.c" ]

let bundled =
  W.Spec.all @ W.Phoronix.all @ W.Webstack.all @ W.Base_system.all

let digest_corpus () =
  List.map W.Workload.compile bundled
  @ List.map
      (fun f ->
        Levee_minic.Lower.compile ~name:f
          (In_channel.with_open_bin ("../examples/minic/" ^ f)
             In_channel.input_all))
      digest_examples

let add_build buf (b : P.built) =
  let s = b.P.stats in
  Buffer.add_string buf (Levee_ir.Printer.program b.P.prog);
  Printf.bprintf buf "stats %d %d %d %d %d %d %d %d\n" s.Stats.funcs_total
    s.Stats.funcs_unsafe_stack s.Stats.mem_ops_total
    s.Stats.mem_ops_instrumented s.Stats.mem_ops_checked
    s.Stats.indirect_calls s.Stats.checks_elided s.Stats.mem_ops_demoted;
  List.iter
    (fun (g, mask) ->
      Printf.bprintf buf "crypt %s %s\n" g
        (String.concat ""
           (Array.to_list (Array.map (fun c -> if c then "1" else "0") mask))))
    b.P.config.M.Config.crypt_cells;
  Prog.iter_funcs b.P.prog (fun fn ->
      Prog.iteri_instrs fn (fun bid idx -> function
        | I.Call _ ->
          Printf.bprintf buf "cfi %s %s\n" fn.Prog.fname
            (match Prog.knob fn bid idx with
             | I.Cfi (Some names) -> "[" ^ String.concat "," names ^ "]"
             | _ -> "-")
        | _ -> ()))

let golden_instrumentation =
  [ ("vanilla", "11dd15f9375835ea4fe1b37c4aa0d458");
    ("dep+aslr+cookies", "ef0ff7b468190c879d91e1b0826e4591");
    ("cookies", "ef0ff7b468190c879d91e1b0826e4591");
    ("safestack", "0c496ea3bc54911c6e7e00a5210c8b89");
    ("cfi", "6bd0931e92b1a94070ba6ff7fe347184");
    ("cps", "f56a0548a91d623b721e6e318f9a5c9d");
    ("cpi", "60af1c86a7946c164d9610b11d1fe527");
    ("cpi-debug", "9cb4e72e451f03e28d203340c837e93d");
    ("softbound", "73ec20f3ffe29d1f413500382c899b68");
    ("cfi-type", "723e227f077ae017fe1ae92382f23290");
    ("cpi-crypt", "af86e276447ff0376288a89be575ff29") ]

let check_digests what expected actual =
  if Sys.getenv_opt "LEVEE_GOLDEN_DUMP" <> None then begin
    Printf.printf "(* %s *)\n" what;
    List.iter (fun (k, d) -> Printf.printf "    (%S, %S);\n" k d) actual
  end
  else Alcotest.(check (list (pair string string))) what expected actual

let instrumentation_digests build corpus =
  List.map
    (fun prot ->
      let buf = Buffer.create (1 lsl 20) in
      List.iter (fun prog -> add_build buf (build prot prog)) corpus;
      ( P.protection_name prot,
        Digest.to_hex (Digest.string (Buffer.contents buf)) ))
    P.all_protections

(* Once with a solve per build, and once the Engine's way: one points-to
   solve per program, handed to all eleven builds. *)
let test_golden_instrumentation () =
  let corpus = digest_corpus () in
  check_digests "instrumentation digests" golden_instrumentation
    (instrumentation_digests (fun prot prog -> P.build prot prog) corpus);
  check_digests "instrumentation digests, shared solve" golden_instrumentation
    (instrumentation_digests
       (fun prot (prog, pt) -> P.build ~points_to:(fun () -> pt) prot prog)
       (List.map
          (fun prog -> (prog, Levee_analysis.Pointsto.analyze prog))
          corpus))

(* The same 11 digests over one generated program, larger and more
   pointer-rich than any bundled one: test/gen_seed1.c is benchmark/gen.ml's
   [Gen.source ~seed:1 ~funcs:120], saved verbatim. *)
let golden_generated =
  [ ("vanilla", "c260fd365f79d9f0c108bf3da46fe78b");
    ("dep+aslr+cookies", "0fff82e973f664295d05725617b6c593");
    ("cookies", "0fff82e973f664295d05725617b6c593");
    ("safestack", "d3e07d7a679dd719aeaffca1f087bb07");
    ("cfi", "3d35c4af5a70b90c6c6497cac61e7b40");
    ("cps", "281df502cf9108877753aaed1d79d38f");
    ("cpi", "43dae12816d30ebe991d52d7cad8f8a0");
    ("cpi-debug", "fad068ecbc436fb2dbe5938334487f5e");
    ("softbound", "c53752f5ad3ea519a20d59b11daafab4");
    ("cfi-type", "7f2b5beb3113bf7fa33f1131e914705c");
    ("cpi-crypt", "a15b165172f3840da95714a0d1a3f380") ]

let test_golden_generated () =
  let prog =
    Levee_minic.Lower.compile ~name:"gen_seed1.c"
      (In_channel.with_open_bin "gen_seed1.c" In_channel.input_all)
  in
  check_digests "generated program digests" golden_generated
    (instrumentation_digests (fun prot prog -> P.build prot prog) [ prog ]);
  let pt = Levee_analysis.Pointsto.analyze prog in
  check_digests "generated program digests, shared solve" golden_generated
    (instrumentation_digests
       (fun prot prog -> P.build ~points_to:(fun () -> pt) prot prog)
       [ prog ])

(* ---------- Simulation digests ----------

   The golden rows pin cycles but leave footprints, heap peak, thread
   counts, five of the protections and the campaigns open. These digests
   close that gap: one MD5 per protection over every [Interp.result]
   field of the 41 bundled workloads at a 20k fuel cap, one over the
   fault campaign's JSON report and one over the RIPE matrix's verdicts.
   A change to the machine's engine, memory or safe store must leave
   every digest unchanged. LEVEE_GOLDEN_DUMP=1 prints the fresh digests
   instead of checking them. *)

module Faults = Levee_harness.Faults
module Ripe = Levee_attacks.Ripe

let md5 s = Digest.to_hex (Digest.string s)

let add_result buf (r : M.Interp.result) =
  Printf.bprintf buf "%s %d %d %d %d %s %d %d %d %d %d %d %d [%s]\n"
    (M.Trap.outcome_to_string r.M.Interp.outcome)
    r.M.Interp.cycles r.M.Interp.instrs r.M.Interp.mem_ops
    r.M.Interp.instrumented_mem_ops (md5 r.M.Interp.output)
    r.M.Interp.checksum r.M.Interp.mem_footprint r.M.Interp.store_footprint
    r.M.Interp.store_accesses r.M.Interp.heap_peak r.M.Interp.threads
    r.M.Interp.ctx_switches
    (String.concat "; " (List.map M.Race.describe r.M.Interp.race_details))

let golden_results =
  [ ("vanilla", "291ea795fedc5c553ffba64c8585b652");
    ("dep+aslr+cookies", "86645749fd49a3f1e69d438364c5d405");
    ("cookies", "86645749fd49a3f1e69d438364c5d405");
    ("safestack", "19bf2119278062a796395052de8d4c25");
    ("cfi", "03724a49730d2de5d68456813c8ee056");
    ("cps", "9893df66091e34bb2fd825130c6fccc4");
    ("cpi", "afca5128ba552f91839d820cad4e1edf");
    ("cpi-debug", "e9629a5bc77d730f99cbf6b2fc9abd20");
    ("softbound", "3b3f764c53945eee2e03862cee7339d8");
    ("cfi-type", "67c352c57801c3524933d421de468cab");
    ("cpi-crypt", "bc8108c9c20223787a4021129ab42d0e") ]

let golden_faults = "a4314f7efbaae7537f16caf6a662d2aa"
let golden_ripe = "861b1707afd1f260a2170f154c17fde3"

let test_golden_results () =
  Alcotest.(check int) "bundled workloads" 41 (List.length bundled);
  let actual =
    List.map
      (fun prot ->
        let buf = Buffer.create 4096 in
        List.iter
          (fun (w : W.Workload.t) ->
            let b = P.build prot (W.Workload.compile w) in
            add_result buf
              (M.Interp.run_program ~input:w.W.Workload.input
                 ~fuel:(min 20_000 w.W.Workload.fuel) b.P.prog b.P.config))
          bundled;
        (P.protection_name prot, md5 (Buffer.contents buf)))
      P.all_protections
  in
  check_digests "result digests" golden_results actual

let test_golden_campaigns () =
  let faults = md5 (Faults.to_json (Faults.run (Faults.smoke ()))) in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (s : Ripe.summary) ->
      List.iter
        (fun (r : Ripe.run) ->
          Printf.bprintf buf "%s %s %s %s\n"
            r.Ripe.instance.Ripe.victim.Levee_attacks.Victims.vid
            (Levee_attacks.Attack.payload_name r.Ripe.instance.Ripe.payload)
            (P.protection_name r.Ripe.protection)
            (M.Trap.outcome_to_string r.Ripe.outcome))
        s.Ripe.runs)
    (Ripe.run_matrix ());
  check_digests "campaign digests"
    [ ("faults", golden_faults); ("ripe", golden_ripe) ]
    [ ("faults", faults); ("ripe", md5 (Buffer.contents buf)) ]

(* ---------- Run-store determinism ----------

   The run-store's whole value rests on records being deterministic
   bytes: the same run appended under any --jobs width must produce
   byte-identical JSONL lines (wall_us is the one nondeterministic
   field; the test zeroes it, and `levee conc` records it as 0), and
   the `levee history` renderings are pinned so the @history-smoke
   byte-compares and any downstream tooling can rely on them. *)

module RS = Levee_support.Runstore

let test_record_bytes_jobs () =
  let line jobs =
    let r =
      Journal.to_record ~kind:"bench" ~commit:"golden" (run_table1 ~jobs)
    in
    RS.to_line { r with RS.wall_us = 0 }
  in
  let l1 = line 1 in
  Alcotest.(check string) "jobs=1 vs jobs=4: byte-identical record" l1 (line 4);
  Alcotest.(check string) "jobs=1 rerun: byte-identical record" l1 (line 1)

let hist_a =
  RS.make ~schema:"levee-bench-journal/4" ~kind:"bench" ~commit:"aaaa111"
    ~config:"table1" ~seed:0 ~wall_us:0
    [ ("cells", RS.Int 30); ("cycles", RS.Int 1000000);
      ("checks_elided", RS.Int 420); ("races", RS.Int 0);
      ("cells_per_sec", RS.Float 197.4) ]

let hist_b =
  RS.make ~schema:"levee-bench-journal/4" ~kind:"bench" ~commit:"bbbb222"
    ~config:"table1" ~seed:0 ~wall_us:0
    [ ("cells", RS.Int 30); ("cycles", RS.Int 1100000);
      ("checks_elided", RS.Int 400); ("races", RS.Int 0);
      ("cells_per_sec", RS.Float 212.9) ]

let test_golden_record_line () =
  Alcotest.(check string) "record line pinned"
    "{\"v\":\"levee-history/1\",\"schema\":\"levee-bench-journal/4\",\
     \"kind\":\"bench\",\"commit\":\"aaaa111\",\"config\":\"table1\",\
     \"seed\":0,\"wall_us\":0,\"metrics\":{\"cells\":30,\
     \"cycles\":1000000,\"checks_elided\":420,\"races\":0,\
     \"cells_per_sec\":197.4}}"
    (RS.to_line hist_a)

let test_golden_diff_human () =
  Alcotest.(check string) "diff table pinned"
    "a: bench/table1 seed 0 commit aaaa111 (levee-bench-journal/4)\n\
     b: bench/table1 seed 0 commit bbbb222 (levee-bench-journal/4)\n\
    \  field                               a              b      delta\n\
    \  wall_us                             0              0      +0.0%\n\
    \  cells                              30             30      +0.0%\n\
    \  cycles                        1000000        1100000     +10.0%\n\
    \  checks_elided                     420            400      -4.8%\n\
    \  races                               0              0      +0.0%\n\
    \  cells_per_sec                   197.4          212.9      +7.9%\n"
    (RS.diff_human hist_a hist_b)

let test_golden_gate_human () =
  Alcotest.(check string) "gate failure verdict pinned"
    "gate: FAIL\n\
    \  cycles: 1000000 -> 1100000 (+10.0% exceeds tolerance 5.0%)\n"
    (RS.gate_human (RS.gate hist_a hist_b));
  Alcotest.(check string) "gate pass verdict pinned"
    "gate: OK (all gated deltas within tolerance)\n"
    (RS.gate_human (RS.gate hist_a hist_a))

let () =
  Alcotest.run "determinism"
    [ ( "table1",
        [ Alcotest.test_case "jobs 1 vs 4, run twice" `Quick test_determinism;
          Alcotest.test_case "journal disk round trip" `Quick
            test_journal_disk_roundtrip ] );
      ( "golden",
        [ Alcotest.test_case "fuel-capped SPEC matrix" `Quick
            test_golden_fuel_capped;
          Alcotest.test_case "full-fuel exits" `Quick test_golden_full_fuel;
          Alcotest.test_case "extended protections and stores" `Quick
            test_golden_extended;
          Alcotest.test_case "concurrent machine" `Quick
            test_golden_concurrent;
          Alcotest.test_case "instrumentation digests" `Quick
            test_golden_instrumentation;
          Alcotest.test_case "generated program digests" `Quick
            test_golden_generated;
          Alcotest.test_case "result digests" `Quick test_golden_results;
          Alcotest.test_case "campaign digests" `Quick
            test_golden_campaigns ] );
      ( "history",
        [ Alcotest.test_case "record bytes across --jobs" `Quick
            test_record_bytes_jobs;
          Alcotest.test_case "record line pinned" `Quick
            test_golden_record_line;
          Alcotest.test_case "diff rendering pinned" `Quick
            test_golden_diff_human;
          Alcotest.test_case "gate rendering pinned" `Quick
            test_golden_gate_human ] ) ]
