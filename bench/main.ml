(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5). Running with no arguments produces everything;
   individual targets:

     dune exec bench/main.exe -- ripe      RIPE effectiveness (Section 5.1)
     dune exec bench/main.exe -- table1    SPEC overhead summary
     dune exec bench/main.exe -- fig3      per-benchmark SPEC overheads
     dune exec bench/main.exe -- table2    compilation statistics
     dune exec bench/main.exe -- table3    SoftBound comparison
     dune exec bench/main.exe -- fig4      Phoronix-like suite
     dune exec bench/main.exe -- table4    web stack throughput
     dune exec bench/main.exe -- fig5      design-space summary
     dune exec bench/main.exe -- memtable  memory overheads (Section 5.2)
     dune exec bench/main.exe -- ablation  design-choice ablations

   Options:
     --jobs N      fan independent (workload x protection x store) cells
                   out over N domains (default: domain count). The cost
                   model is deterministic, so any N produces the same
                   tables; --jobs 1 is the sequential baseline.
     --no-json     don't write BENCH_<target>.json run journals
                   (--json, the default, is also accepted)
     --fuel-cap N  clamp every workload's instruction budget (CI smoke)

   Cycle counts come from the machine's deterministic cost model, so every
   number below is exactly reproducible; host wall-clock speed is measured
   by `python3 benchmark/run.py`, not here. Each target also serializes
   every execution to BENCH_<target>.json (schema in EXPERIMENTS.md) and
   prints a one-line summary to stderr. *)

module P = Levee_core.Pipeline
module Stats = Levee_core.Stats
module W = Levee_workloads
module M = Levee_machine
module R = Levee_attacks.Ripe
module A = Levee_attacks.Attack
module SupStats = Levee_support.Stats
module Pool = Levee_support.Pool
module Journal = Levee_support.Journal
module Runstore = Levee_support.Runstore
module Engine = Levee_harness.Engine
module Targets = Levee_harness.Targets

(* ---------- execution engine ---------- *)

let jobs_flag = ref 0                   (* 0 = Domain.recommended_domain_count *)
let json_flag = ref true
let fuel_cap = ref None

let eng =
  lazy
    (let jobs = if !jobs_flag <= 0 then Pool.default_jobs () else !jobs_flag in
     Engine.create ?fuel_cap:!fuel_cap ~jobs ())

let run_workload ?store_impl (w : W.Workload.t) prot =
  Engine.run_workload (Lazy.force eng) ?store_impl w prot

let overhead (w : W.Workload.t) prot = Engine.overhead (Lazy.force eng) w prot

let line () = print_endline (String.make 78 '-')

let header title =
  print_newline ();
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ---------- Section 5.1: RIPE ---------- *)

(* The matrix is deterministic per protection, so protections fan out
   through the pool; concatenating in protection order reproduces the
   sequential run_matrix output exactly. *)
let ripe_protections =
  [ P.Vanilla; P.Hardened; P.Cookies; P.Safe_stack; P.Cfi; P.Cfi_type;
    P.Cps; P.Cpi; P.Cpi_crypt; P.Softbound ]

let ripe_summaries =
  lazy
    (let pool = Engine.pool (Lazy.force eng) in
     Pool.map pool
       (fun prot ->
         List.hd (R.run_matrix ~include_beyond_ripe:false ~protections:[ prot ] ()))
       ripe_protections
     |> List.map (function
          | Ok s -> s
          | Error e -> raise e))

(* One journal entry per protection: CI watches for a hijack slipping
   past CPS/CPI/SoftBound, which the paper says stop everything. *)
let ripe_journal_entry (s : R.summary) =
  let must_stop_all =
    match s.R.protection with
    | P.Cps | P.Cpi | P.Cpi_crypt | P.Softbound -> true
    | _ -> false
  in
  Engine.entry ~workload:"ripe-matrix" ~protection:s.R.protection
    ~store_impl:M.Safestore.Simple_array
    ~ok:(not (must_stop_all && s.R.hijacked > 0)) ~wall_us:0
    (Engine.Not_run
       (Printf.sprintf "hijacked=%d trapped=%d crashed=%d of %d" s.R.hijacked
          s.R.trapped_count s.R.crashed s.R.total))

let bench_ripe () =
  header "RIPE-style attack matrix (paper Section 5.1)";
  Printf.printf "%-20s %8s %9s %9s %9s   %s\n" "configuration" "attacks"
    "hijacked" "trapped" "crashed" "paper says";
  let paper_note = function
    | P.Vanilla -> "833-848 of 850 succeed (Ubuntu 6.06)"
    | P.Hardened -> "43-49 succeed (Ubuntu 13.10, all protections)"
    | P.Cookies -> "stops continuous stack smashes only"
    | P.Safe_stack -> "prevents all stack-based attacks"
    | P.Cfi -> "bypassable in a principled way [19,15,9]"
    | P.Cfi_type -> "per-signature sets narrow the bypass (Burow et al.)"
    | P.Cps -> "none succeed"
    | P.Cpi -> "none succeed"
    | P.Cpi_crypt -> "keyed pointers garble under tampering (LIPPEN/PAC)"
    | P.Softbound -> "full memory safety"
    | P.Cpi_debug -> ""
  in
  List.iter
    (fun (s : R.summary) ->
      Printf.printf "%-20s %8d %9d %9d %9d   %s\n"
        (P.protection_name s.R.protection) s.R.total s.R.hijacked
        s.R.trapped_count s.R.crashed (paper_note s.R.protection))
    (Lazy.force ripe_summaries);
  print_newline ();
  print_endline
    "Key claims reproduced: CPI and CPS stop 100% of the attacks; the safe";
  print_endline
    "stack alone stops all stack-based attacks; stock DEP+ASLR+cookies stop";
  print_endline "many but not all; coarse-grained CFI is bypassed."

(* ---------- Table 1 + Fig. 3: SPEC ---------- *)

let spec_rows = lazy (
  List.map
    (fun (w : W.Workload.t) ->
      (w, overhead w P.Safe_stack, overhead w P.Cps, overhead w P.Cpi))
    W.Spec.all)

let summarize sel rows =
  let l = List.map sel rows in
  (SupStats.mean l, SupStats.median l, SupStats.maximum l)

let bench_table1 () =
  header "Table 1: SPEC CPU2006 performance overhead summary";
  let rows = Lazy.force spec_rows in
  let c_rows = List.filter (fun (w, _, _, _) -> w.W.Workload.lang = W.Workload.C) rows in
  let print_group name rows (p_ss, p_cps, p_cpi) =
    let ss = summarize (fun (_, s, _, _) -> s) rows in
    let cps = summarize (fun (_, _, c, _) -> c) rows in
    let cpi = summarize (fun (_, _, _, c) -> c) rows in
    let p (a, m, x) = Printf.sprintf "%6.1f%% %6.1f%% %6.1f%%" a m x in
    Printf.printf "%-24s %s | %s | %s\n" name (p ss) (p cps) (p cpi);
    Printf.printf "%-24s paper: %s | %s | %s   (avg)\n" "" p_ss p_cps p_cpi
  in
  Printf.printf "%-24s %-22s | %-22s | %-22s\n" "" "SafeStack avg/med/max"
    "CPS avg/med/max" "CPI avg/med/max";
  print_group "All C/C++" rows ("0.0%", "1.9%", "8.4%");
  print_group "C only" c_rows ("-0.4%", "1.2%", "2.9%")

let bar v =
  let n = max 0 (min 40 (int_of_float (v /. 1.2))) in
  String.make n '#'

let bench_fig3 () =
  header "Fig. 3: per-benchmark overhead, three configurations (measured)";
  Printf.printf "%-16s %10s %10s %10s\n" "benchmark" "safestack" "cps" "cpi";
  List.iter
    (fun ((w : W.Workload.t), ss, cps, cpi) ->
      Printf.printf "%-16s %9.1f%% %9.1f%% %9.1f%%  |%s\n" w.W.Workload.name ss
        cps cpi (bar cpi))
    (Lazy.force spec_rows);
  print_newline ();
  print_endline
    "Shape checks: C++ benchmarks (omnetpp, xalancbmk, dealII) dominate CPI;";
  print_endline
    "perlbench/omnetpp are the CPS outliers; namd is negative under SafeStack."

(* ---------- Table 2: compilation statistics ---------- *)

(* paper values: benchmark, FNUStack, MOCPS, MOCPI (percent) *)
let table2_paper =
  [ ("400.perlbench", 15.0, 1.0, 13.8); ("401.bzip2", 27.2, 1.3, 1.9);
    ("403.gcc", 19.9, 0.3, 6.0); ("429.mcf", 50.0, 0.5, 0.7);
    ("433.milc", 50.9, 0.1, 0.7); ("444.namd", 75.8, 0.6, 1.1);
    ("445.gobmk", 10.3, 0.1, 0.4); ("447.dealII", 12.3, 6.6, 13.3);
    ("450.soplex", 9.5, 4.0, 2.5); ("453.povray", 26.8, 0.8, 4.7);
    ("456.hmmer", 13.6, 0.2, 2.0); ("458.sjeng", 50.0, 0.1, 0.1);
    ("462.libquantum", 28.5, 0.4, 2.3); ("464.h264ref", 20.5, 1.5, 2.8);
    ("470.lbm", 16.6, 0.6, 1.5); ("471.omnetpp", 6.9, 10.5, 36.6);
    ("473.astar", 9.0, 0.1, 3.2); ("482.sphinx3", 19.7, 0.1, 4.6);
    ("483.xalancbmk", 17.5, 17.5, 27.1) ]

let bench_table2 () =
  header "Table 2: compilation statistics (measured vs paper)";
  Printf.printf "%-16s | %-17s | %-17s | %-17s\n" "benchmark"
    "FNUStack ours/paper" "MOCPS ours/paper" "MOCPI ours/paper";
  let total_ops = ref 0 and instr_cpi = ref 0 in
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = W.Workload.compile w in
      let ss = (P.build P.Safe_stack prog).P.stats in
      let cps = (P.build P.Cps prog).P.stats in
      let cpi = (P.build P.Cpi prog).P.stats in
      total_ops := !total_ops + cpi.Stats.mem_ops_total;
      instr_cpi := !instr_cpi + cpi.Stats.mem_ops_instrumented;
      let p_fnu, p_cps, p_cpi =
        match List.assoc_opt w.W.Workload.name
                (List.map (fun (n, a, b, c) -> (n, (a, b, c))) table2_paper)
        with
        | Some (a, b, c) -> (a, b, c)
        | None -> (0., 0., 0.)
      in
      Printf.printf "%-16s | %6.1f%% / %5.1f%% | %6.1f%% / %5.1f%% | %6.1f%% / %5.1f%%\n"
        w.W.Workload.name
        (100. *. Stats.fnustack ss) p_fnu
        (100. *. Stats.mo_instrumented cps) p_cps
        (100. *. Stats.mo_instrumented cpi) p_cpi)
    W.Spec.all;
  Printf.printf
    "\nOverall CPI-instrumented memory operations: %.1f%% (paper: 6.5%% of all\n\
     pointer operations need protection)\n"
    (100. *. float_of_int !instr_cpi /. float_of_int (max 1 !total_ops))

(* ---------- Table 3: SoftBound comparison ---------- *)

let bench_table3 () =
  header "Table 3: Levee vs SoftBound on the four benchmarks SoftBound handles";
  let paper =
    [ ("401.bzip2", (0.3, 1.2, 2.8, 90.2)); ("447.dealII", (0.8, -0.2, 3.7, 60.2));
      ("458.sjeng", (0.3, 1.8, 2.6, 79.0)); ("464.h264ref", (0.9, 5.5, 5.8, 249.4)) ]
  in
  Printf.printf "%-14s %22s %30s\n" "benchmark" "ours: ss/cps/cpi/sb"
    "paper: ss/cps/cpi/sb";
  List.iter
    (fun (name, (pss, pcps, pcpi, psb)) ->
      let w = W.Spec.find name in
      Printf.printf
        "%-14s %5.1f %5.1f %5.1f %6.1f   %5.1f %5.1f %5.1f %6.1f   (%%)\n" name
        (overhead w P.Safe_stack) (overhead w P.Cps) (overhead w P.Cpi)
        (overhead w P.Softbound) pss pcps pcpi psb)
    paper;
  print_newline ();
  print_endline
    "Shape check: full memory safety costs an order of magnitude more than";
  print_endline "CPI on every benchmark, 16-44x in the paper's terms."

(* ---------- Fig. 4: Phoronix ---------- *)

let bench_fig4 () =
  header "Fig. 4: Phoronix-like system benchmarks (measured)";
  Printf.printf "%-16s %10s %10s %10s\n" "benchmark" "safestack" "cps" "cpi";
  List.iter
    (fun (w : W.Workload.t) ->
      let ss = overhead w P.Safe_stack in
      let cps = overhead w P.Cps in
      let cpi = overhead w P.Cpi in
      Printf.printf "%-16s %9.1f%% %9.1f%% %9.1f%%  |%s\n" w.W.Workload.name ss
        cps cpi (bar cpi))
    W.Phoronix.all;
  print_newline ();
  print_endline
    "Shape check: most system workloads sit within noise for SafeStack/CPS;";
  print_endline "pybench (the dynamic-object interpreter) is the CPI outlier,";
  print_endline "matching the paper's 'suspiciously high pybench overhead'."

(* ---------- Table 4: web stack ---------- *)

let bench_table4 () =
  header "Table 4: web-server throughput (overhead vs vanilla)";
  let paper = [ ("web-static", (1.7, 8.9, 16.9)); ("web-wsgi", (1.0, 4.0, 15.3));
                ("web-dynamic", (1.4, 15.9, 138.8)) ] in
  Printf.printf "%-12s %26s %26s\n" "page" "ours: ss/cps/cpi" "paper: ss/cps/cpi";
  List.iter
    (fun (w : W.Workload.t) ->
      let pss, pcps, pcpi =
        match List.assoc_opt w.W.Workload.name paper with
        | Some (a, b, c) -> (a, b, c)
        | None -> (0., 0., 0.)
      in
      Printf.printf "%-12s %7.1f%% %7.1f%% %7.1f%%   %7.1f%% %7.1f%% %7.1f%%\n"
        w.W.Workload.name (overhead w P.Safe_stack) (overhead w P.Cps)
        (overhead w P.Cpi) pss pcps pcpi)
    W.Webstack.all;
  print_newline ();
  print_endline
    "Shape check: the dynamically generated page costs CPI several times more";
  print_endline "than the static and wsgi pages (interpreter-style C)."

(* ---------- Fig. 5: design space ---------- *)

let bench_fig5 () =
  header "Fig. 5: control-flow hijack defenses: guarantee vs overhead (measured)";
  let rows = Lazy.force spec_rows in
  let avg sel = SupStats.mean (List.map sel rows) in
  let avg_of prot = SupStats.mean (List.map (fun (w, _, _, _) -> overhead w prot) rows) in
  let summaries = Lazy.force ripe_summaries in
  let stops prot =
    let s = List.find (fun (s : R.summary) -> s.R.protection = prot) summaries in
    if s.R.hijacked = 0 then "yes"
    else Printf.sprintf "no (%d/%d pass)" s.R.hijacked s.R.total
  in
  Printf.printf "%-22s %-18s %12s   %s\n" "mechanism" "stops all hijacks?"
    "avg overhead" "paper overhead";
  let row name stops_s ov paper =
    Printf.printf "%-22s %-18s %11.1f%%   %s\n" name stops_s ov paper
  in
  row "Memory safety (SB)" (stops P.Softbound) (avg_of P.Softbound) "116%";
  row "CPI (this work)" (stops P.Cpi) (avg (fun (_, _, _, c) -> c)) "8.4%";
  row "CPS (this work)" (stops P.Cps) (avg (fun (_, _, c, _) -> c)) "1.9%";
  row "Safe Stack" (stops P.Safe_stack) (avg (fun (_, s, _, _) -> s)) "~0%";
  row "ASLR+DEP+cookies" (stops P.Hardened) (avg_of P.Hardened) "~2%";
  row "Stack cookies" (stops P.Cookies) (avg_of P.Cookies) "~2%";
  row "CFI (coarse)" (stops P.Cfi) (avg_of P.Cfi) "20%"

(* ---------- Section 5.2: memory overhead ---------- *)

let bench_memtable () =
  header "Memory overhead of the safe region (Section 5.2, measured medians)";
  Printf.printf "%-14s %16s %16s %16s\n" "configuration" "array" "hashtable" "two-level";
  (* memory overhead = safe-store footprint relative to the program's own
     data footprint (heap peak + globals + stacks actually touched), on the
     pointer-heavy half of the suite where the safe region is exercised *)
  let mean_ov prot =
    List.map
      (fun impl ->
        let l =
          List.map
            (fun (w : W.Workload.t) ->
              let base = run_workload w P.Vanilla in
              let data = max 1 (base.M.Interp.heap_peak + 4096) in
              let r = run_workload ~store_impl:impl w prot in
              100. *. float_of_int r.M.Interp.store_footprint /. float_of_int data)
            Targets.memtable_workloads
        in
        SupStats.mean l)
      Targets.memtable_stores
  in
  (match mean_ov P.Cps with
   | [ a; h; t ] ->
     Printf.printf "%-14s %15.1f%% %15.1f%% %15.1f%%   (paper: array 5.6%%, hash 2.1%%)\n"
       "CPS" a h t
   | _ -> ());
  (match mean_ov P.Cpi with
   | [ a; h; t ] ->
     Printf.printf "%-14s %15.1f%% %15.1f%% %15.1f%%   (paper: array 105%%, hash 13.9%%)\n"
       "CPI" a h t
   | _ -> ());
  print_endline
    "\nShape check: the sparse array costs far more memory than the hashtable;";
  print_endline "CPI's metadata costs several times CPS's value-only entries."

(* ---------- ablations ---------- *)

let bench_ablation () =
  header "Ablations: design choices called out in DESIGN.md";
  (* (a) safe-store organisation: runtime on dispatch-heavy workloads *)
  let subset = Targets.ablation_workloads in
  Printf.printf "(a) safe pointer store organisation (CPI overhead vs vanilla):\n";
  List.iter
    (fun impl ->
      let ov =
        SupStats.mean
          (List.map
             (fun (w : W.Workload.t) ->
               let base = run_workload w P.Vanilla in
               let r = run_workload ~store_impl:impl w P.Cpi in
               SupStats.overhead_pct ~base:base.M.Interp.cycles
                 ~instrumented:r.M.Interp.cycles)
             subset)
      in
      Printf.printf "    %-12s %6.2f%%\n" (M.Safestore.impl_name impl) ov)
    Targets.ablation_stores;
  print_endline
    "    (paper: the superpage-backed array was fastest; 'mpx' models the\n\
    \     Section-4 future hardware-assisted bound tables)";
  (* (b) isolation mechanism *)
  Printf.printf "\n(b) safe-region isolation (CPI, perlbench+omnetpp):\n";
  List.iter
    (fun (iso, name) ->
      let ov =
        SupStats.mean
          (List.map
             (fun (w : W.Workload.t) ->
               let prog = W.Workload.compile w in
               let b = P.build ~isolation:iso P.Cpi prog in
               let r =
                 M.Interp.run_program ~fuel:w.W.Workload.fuel b.P.prog b.P.config
               in
               let base = run_workload w P.Vanilla in
               SupStats.overhead_pct ~base:base.M.Interp.cycles
                 ~instrumented:r.M.Interp.cycles)
             subset)
      in
      Printf.printf "    %-14s %6.2f%%\n" name ov)
    [ (M.Config.Segments, "segments"); (M.Config.Info_hiding, "info-hiding");
      (M.Config.Sfi, "SFI") ];
  print_endline "    (paper: SFI adds <5% over the segment/hiding variants)";
  (* (c) debug mode *)
  Printf.printf "\n(c) CPI debug mode (both copies kept and compared):\n";
  let ov_dbg =
    SupStats.mean (List.map (fun w -> overhead w P.Cpi_debug) subset)
  in
  let ov_cpi = SupStats.mean (List.map (fun w -> overhead w P.Cpi) subset) in
  Printf.printf "    default %.2f%%  debug %.2f%%\n" ov_cpi ov_dbg

(* ---------- Section 5.3: whole-distribution practicality ---------- *)

let bench_distro () =
  header "Section 5.3: rebuilding the whole 'distribution' under each config";
  print_endline
    "The paper rebuilds FreeBSD plus >100 packages under CPI/CPS/SafeStack\n\
     and reports that everything that builds and runs vanilla also builds\n\
     and runs protected. The analogue here: every workload in the tree\n\
     (SPEC-like + Phoronix-like + web stack) must compile, instrument,\n\
     verify and run to completion with identical output under every\n\
     configuration.\n";
  let packages = Targets.distro_packages in
  let configs = [ P.Safe_stack; P.Cps; P.Cpi ] in
  let failures = ref 0 in
  List.iter
    (fun prot ->
      let ok = ref 0 in
      List.iter
        (fun (w : W.Workload.t) ->
          let base = run_workload w P.Vanilla in
          let r = run_workload w prot in
          if
            base.M.Interp.outcome = M.Trap.Exit 0
            && r.M.Interp.outcome = base.M.Interp.outcome
            && r.M.Interp.checksum = base.M.Interp.checksum
          then incr ok
          else begin
            incr failures;
            Printf.printf "  FAIL %s under %s\n" w.W.Workload.name
              (P.protection_name prot)
          end)
        packages;
      Printf.printf "  %-12s %d/%d packages build and run correctly\n"
        (P.protection_name prot) !ok (List.length packages))
    configs;
  if !failures = 0 then
    print_endline "\nAll packages work under all protections, as in the paper."

(* ---------- driver ---------- *)

let all_targets =
  [ ("ripe", bench_ripe); ("table1", bench_table1); ("fig3", bench_fig3);
    ("table2", bench_table2); ("table3", bench_table3); ("fig4", bench_fig4);
    ("table4", bench_table4); ("fig5", bench_fig5); ("memtable", bench_memtable);
    ("ablation", bench_ablation); ("distro", bench_distro) ]

(* Targets whose printing code raised (a harness bug, not a simulated
   trap): the run continues to the next target and the process reports
   every failure — and exits non-zero — only after the full matrix. *)
let target_failures : (string * string) list ref = ref []

(* Run one target under its own journal: fan its independent cells out
   through the pool first (a no-op at --jobs 1 beyond ordering the
   journal), then let the unchanged printing code hit the memo. *)
let run_target name f =
  let e = Lazy.force eng in
  let j =
    if !json_flag then
      Some (Journal.create ~jobs:(Engine.jobs e) ~target:name ())
    else None
  in
  Engine.set_journal e j;
  (try
     (match List.assoc_opt name Targets.by_name with
      | Some cells -> Engine.prefetch e (cells ())
      | None -> ());
     f ();
     match j with
     | Some j when name = "ripe" ->
       List.iter
         (fun s -> Journal.record j (ripe_journal_entry s))
         (Lazy.force ripe_summaries)
     | _ -> ()
   with exn ->
     let msg = Printexc.to_string exn in
     target_failures := (name, msg) :: !target_failures;
     Printf.eprintf "[bench] target %s failed: %s\n" name msg);
  Engine.set_journal e None;
  match j with
  | Some j ->
    let path = Journal.write j in
    (* BENCH_<target>.json stays the one-shot snapshot; the aggregate
       record additionally lands in the append-only run-store, so the
       trajectory across commits is diffable with `levee history`. *)
    Runstore.append (Journal.to_record ~kind:"bench" j);
    Printf.eprintf "%s -> %s, %s\n" (Journal.summary_line j) path
      Runstore.default_path
  | None -> ()

let usage () =
  Printf.printf
    "usage: main.exe [--jobs N] [--json|--no-json] [--fuel-cap N] [target...]\n\
     targets: %s\n"
    (String.concat " " (List.map fst all_targets));
  exit 2

let () =
  let names = ref [] in
  let positive k =
    Arg.Int (fun n -> if n >= 1 then k n else raise (Arg.Bad "must be >= 1"))
  in
  (try
     Arg.parse_argv Sys.argv
       [ ("--jobs", positive (fun n -> jobs_flag := n), "");
         ("--json", Arg.Set json_flag, "");
         ("--no-json", Arg.Clear json_flag, "");
         ("--fuel-cap", positive (fun n -> fuel_cap := Some n), "");
         ("-h", Arg.Unit usage, "") ]
       (fun name -> names := name :: !names)
       ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let names = List.rev !names in
  List.iter
    (fun name ->
      if not (List.mem_assoc name all_targets) then begin
        Printf.eprintf "unknown target %s; available: %s\n" name
          (String.concat " " (List.map fst all_targets));
        exit 2
      end)
    names;
  (match names with
   | [] ->
     print_endline
       "Code-Pointer Integrity (OSDI 2014) — full evaluation reproduction";
     List.iter (fun (name, f) -> run_target name f) all_targets
   | names ->
     List.iter
       (fun name -> run_target name (List.assoc name all_targets))
       names);
  (* Full matrix reported; now aggregate every failure class and only
     then decide the exit code. *)
  let vanilla = Engine.vanilla_failures (Lazy.force eng) in
  let harness = Engine.harness_failures (Lazy.force eng) in
  let targets = List.rev !target_failures in
  Engine.shutdown (Lazy.force eng);
  if vanilla <> [] then begin
    Printf.eprintf "[bench] %d vanilla run(s) did not exit cleanly:\n"
      (List.length vanilla);
    List.iter
      (fun (name, o) ->
        Printf.eprintf "  %s: %s\n" name (M.Trap.outcome_to_string o))
      vanilla
  end;
  if harness <> [] then begin
    Printf.eprintf "[bench] %d cell(s) failed in the harness:\n"
      (List.length harness);
    List.iter
      (fun (cell, reason) -> Printf.eprintf "  %s: %s\n" cell reason)
      harness
  end;
  if targets <> [] then begin
    Printf.eprintf "[bench] %d target(s) failed:\n" (List.length targets);
    List.iter
      (fun (name, msg) -> Printf.eprintf "  %s: %s\n" name msg)
      targets
  end;
  if vanilla <> [] || harness <> [] || targets <> [] then exit 1
