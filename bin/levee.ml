(* The levee command-line driver: the analogue of the paper's Levee
   compiler wrapper. Compiles a MiniC source file, applies the requested
   protection (the paper's -fcpi / -fcps / -fstack-protector-safe flags),
   and runs it on the machine simulator.

     levee [options] file.c
       -fcpi                    code-pointer integrity (default)
       -fcps                    code-pointer separation
       -fstack-protector-safe   safe stack only
       -fsoftbound              full spatial memory safety baseline
       -fcfi | -fcfi-type | -fcookies | -fvanilla | -fhardened | -fcpi-debug
       -fcpi-crypt              in-place pointer encryption (no safe region)
       -emit-ir                 print the (instrumented) IR and exit
       -stats                   print Table-2-style instrumentation stats
       -input 1,2,3             input words fed to read_int/gets
       -fuel N                  instruction budget (default 50M)
       -store array|two-level|hash   safe-pointer-store organisation
       -sfi                     use SFI isolation instead of info hiding
       -time                    print cycle counts
       -matrix                  run under ALL protections via the worker
                                pool and print a comparison table
       -jobs N                  pool width for -matrix (default 1)
       -json FILE               write a BENCH-style JSON run journal

     levee analyze [--json] [--races] [--record FILE] file.c...
       Static lint over each file: unsafe casts, Castflow-forced loads,
       dead instrumentation (provably data-only sensitive accesses),
       unreachable blocks, never-code indirect calls, and per-function
       Table-2-style statistics, plus the CPI pipeline's authoritative
       check-elision/demotion counts. --races additionally runs the
       static lockset race detector over the source program and the
       safe-region separation prover over the CPI build (certificates
       replayed through Verify). --json emits the levee-analyze/2
       document instead of the human table. Output is deterministic;
       exits 1 on error-severity findings (internal inconsistencies).
       --record appends one analyze record per file to the run-store.

     levee crossval [--json] [--jobs N] [--seeds N] [--record FILE]
       Cross-validate the static race analyzer against the dynamic
       Eraser detector: run the built-in racy/race-free corpus under
       vanilla and CPI across scheduler seeds 0..N-1 (default 8) and
       check that every dynamically-observed race is statically flagged,
       that verdicts match the corpus expectations, and that the
       fault-campaign subjects' separation proofs agree with their
       measured CPI hijack immunity. Deterministic for any --jobs;
       exits 1 iff an invariant is violated.

     levee faults [--json] [--jobs N] [--seed S]
       Run the deterministic fault-injection smoke campaign: seeded
       corruption plans swept over defense configs x store organisations,
       every run classified against its un-faulted baseline. --json emits
       the levee-faults/3 document (byte-identical for any --jobs).
       Exits 1 iff a campaign invariant is violated.

     levee conc [--threads N] [--sched-seed S] [--jobs N] [--json]
       Run the concurrent web-serving workload with N worker threads
       under the deterministic scheduler, across the protection matrix
       (CPI additionally across all three store organisations). --json
       emits a levee-bench-journal/5 document with wall_us zeroed, so
       the output is a pure function of (--threads, --sched-seed):
       byte-identical for any --jobs. Exits 1 if any run fails, any
       protection diverges from vanilla, or a race is reported.
       --record FILE additionally appends one levee-history/1 record to
       the run-store at FILE (conc and faults both take it).

     levee serve [--json] [--jobs N] [--seeds N] [--workers N] [--shards N]
                 [--requests N] [--no-faults] [--record FILE]
       Run the resilient-server campaign: per-class service costs
       calibrated on the machine, hijack/degradation fault-plan probes
       per (protection, seed) cell, then a deterministic discrete-event
       simulation of an open-loop arrival process (default 10^6 requests
       per cell) with deadlines, bounded retries, per-shard circuit
       breakers, admission shedding, and injected worker kills + a
       hot-shard stall window. --json emits the levee-serve/1 document
       (simulated cycles only, byte-identical for any --jobs). --record
       appends one record per cell to the run-store. Exits 1 iff a
       campaign invariant is violated.

     levee history [--file FILE] [--diff A B] [--gate [A B]] [--tol f=p]
       Read the append-only run-store (RUNS.jsonl by default; every
       bench/perf/conc/faults run appends one record) and print the
       trajectory. --diff compares two runs field-by-field; --gate
       additionally checks per-field tolerances (cycles/sim_cycles 5%,
       wall_us 50% unless overridden with --tol field=pct) and exits 1
       naming each offending field when a delta exceeds its tolerance.
       A and B are 0-based indices (negative counts from the end),
       "last"/"prev", or a config name (most recent match); --gate
       alone compares prev vs last. Malformed store lines are precise
       errors (file:line), exit 2.

   Every subcommand flag also answers to its single-dash spelling
   (--json / -json). Unknown flags and malformed values (-fuel abc,
   -input 1,x, --jobs 0) print the usage and exit 2. *)

module P = Levee_core.Pipeline
module M = Levee_machine
module Pool = Levee_support.Pool
module Journal = Levee_support.Journal
module Runstore = Levee_support.Runstore
module Engine = Levee_harness.Engine
module Faults = Levee_harness.Faults

let usage () =
  prerr_endline
    "usage: levee [-fcpi|-fcps|-fstack-protector-safe|-fsoftbound|-fcfi|\n\
    \              -fcfi-type|-fcpi-crypt|-fcookies|-fvanilla|-fhardened|\n\
    \              -fcpi-debug]\n\
    \             [-emit-ir] [-stats] [-time] [-sfi] [-matrix] [-jobs N]\n\
    \             [-json FILE]\n\
    \             [-input w1,w2,...] [-fuel N] [-store array|two-level|hash]\n\
    \             [-sched-seed N]\n\
    \             file.c\n\
    \       levee analyze [--json] [--races] [--record FILE] file.c...\n\
    \       levee crossval [--json] [--jobs N] [--seeds N] [--record FILE]\n\
    \       levee faults [--json] [--jobs N] [--seed S] [--record FILE]\n\
    \       levee conc [--threads N] [--sched-seed S] [--jobs N] [--json]\n\
    \                  [--record FILE]\n\
    \       levee serve [--json] [--jobs N] [--seeds N] [--workers N]\n\
    \                   [--shards N] [--requests N] [--no-faults]\n\
    \                   [--record FILE]\n\
    \       levee history [--file FILE] [--diff A B] [--gate [A B]]\n\
    \                     [--tol field=pct]";
  exit 2

(* ---------- the one flag parser ---------- *)

(* Parse [args] against [specs]; every "--flag" also answers to "-flag".
   Any Arg error (unknown flag, missing or malformed value, a value a
   spec rejects) prints the reason and the usage, and exits 2. *)
let parse_args ~anon specs args =
  let specs =
    List.concat_map
      (fun ((key, spec, doc) as s) ->
        if String.length key > 2 && String.sub key 0 2 = "--" then
          [ s; (String.sub key 1 (String.length key - 1), spec, doc) ]
        else [ s ])
      specs
  in
  try
    Arg.parse_argv ~current:(ref 0) (Array.of_list ("levee" :: args)) specs
      anon ""
  with
  | Arg.Bad msg ->
    prerr_endline (List.hd (String.split_on_char '\n' msg));
    usage ()
  | Arg.Help _ -> usage ()

let no_anon a = raise (Arg.Bad ("unexpected argument " ^ a))

let int_in lo hi k =
  Arg.Int
    (fun n ->
      if n >= lo && n <= hi then k n
      else if hi = max_int then
        raise (Arg.Bad (Printf.sprintf "%d is not an integer >= %d" n lo))
      else raise (Arg.Bad (Printf.sprintf "%d is not in %d..%d" n lo hi)))

(* The flags the report subcommands share. *)
let json = ref false
let jobs = ref 1
let record = ref None
let jobs_arg = int_in 1 max_int (fun n -> jobs := n)
let json_spec = ("--json", Arg.Set json, "")
let jobs_spec = ("--jobs", jobs_arg, "")
let record_spec = ("--record", Arg.String (fun p -> record := Some p), "")
let seeds_spec hi k = ("--seeds", int_in 1 hi k, "")

(* The tail they share: print the JSON document or the human table,
   append the run-store records when --record was given. *)
let emit ~doc ~human ~records rep =
  print_string (if !json then doc rep else human rep);
  match !record with
  | Some path -> List.iter (Runstore.append ~path) (records rep)
  | None -> ()

(* ... and exit 0 iff the report's invariants hold. *)
let finish ~doc ~human ~records ~ok rep =
  emit ~doc ~human ~records rep;
  exit (if ok rep then 0 else 1)

let compile_or_die file =
  let src = In_channel.with_open_bin file In_channel.input_all in
  try Levee_minic.Lower.compile ~name:file src with
  | Failure msg ->
    prerr_endline msg;
    exit 1

(* ---------- subcommands ---------- *)

(* levee analyze [--json] [--races] [--record FILE] file.c... *)
let run_analyze args =
  let module D = Levee_analysis.Diag in
  let races = ref false in
  let files = ref [] in
  parse_args
    ~anon:(fun f -> files := f :: !files)
    [ json_spec; ("--races", Arg.Set races, ""); record_spec ]
    args;
  let files = List.rev !files in
  if files = [] then usage ();
  let any_errors = ref false in
  List.iter
    (fun file ->
      let prog = compile_or_die file in
      let name = Filename.basename file in
      let report = D.analyze ~name prog in
      (* The instrumented build supplies the authoritative pipeline
         counts: what elision and demotion actually did under CPI. *)
      let built = P.build P.Cpi prog in
      let report =
        if not !races then report
        else
          (* Race verdicts come from the uninstrumented program (what the
             programmer wrote); the separation proof is about the CPI
             build (what actually runs). *)
          D.add_separation
            (D.add_races report (Levee_analysis.Racecheck.races prog))
            (Levee_analysis.Racecheck.separation built.P.prog)
      in
      let elided = built.P.stats.Levee_core.Stats.checks_elided in
      let demoted = built.P.stats.Levee_core.Stats.mem_ops_demoted in
      emit ~doc:(D.to_json ~elided ~demoted)
        ~human:(D.to_human ~elided ~demoted)
        ~records:(fun r -> [ D.to_record ~name r ])
        report;
      if D.has_errors report then any_errors := true)
    files;
  exit (if !any_errors then 1 else 0)

(* levee crossval [--json] [--jobs N] [--seeds N] [--record FILE] *)
let run_crossval args =
  let module X = Levee_harness.Crossval in
  let nseeds = ref 8 in
  parse_args ~anon:no_anon
    [ json_spec; jobs_spec; seeds_spec 64 (fun n -> nseeds := n); record_spec ]
    args;
  let rep = X.run ~jobs:!jobs ~seeds:(List.init !nseeds Fun.id) X.corpus in
  let faults = X.faults_cross ~jobs:!jobs () in
  finish ~doc:(X.to_json ~faults) ~human:(X.to_human ~faults)
    ~records:(fun r -> [ X.to_record r ])
    ~ok:(fun r -> X.invariants_ok r && X.faults_consistent faults)
    rep

(* levee faults [--json] [--jobs N] [--seed S] [--record FILE] *)
let run_faults args =
  let seed = ref 42 in
  parse_args ~anon:no_anon
    [ json_spec; jobs_spec; ("--seed", Arg.Set_int seed, ""); record_spec ]
    args;
  finish ~doc:Faults.to_json ~human:Faults.to_human
    ~records:(fun r -> [ Faults.to_record r ])
    ~ok:Faults.invariants_ok
    (Faults.run ~jobs:!jobs (Faults.smoke ~seed:!seed ()))

(* levee history [--file FILE] [--diff A B] [--gate [A B]] [--tol f=p] *)
let run_history args =
  let file = ref Runstore.default_path in
  let diff = ref None in
  let gate = ref None in
  let tols = ref [] in
  (* A run spec never starts with '-' except a negative index. *)
  let is_spec s =
    String.length s > 0 && (s.[0] <> '-' || int_of_string_opt s <> None)
  in
  let run_spec k =
    Arg.String
      (fun s ->
        if is_spec s then k s else raise (Arg.Bad ("bad run spec " ^ s)))
  in
  let diff_a = ref "" in
  let tol spec =
    let bad () = raise (Arg.Bad ("bad tolerance " ^ spec)) in
    match String.index_opt spec '=' with
    | Some i ->
      let f = String.sub spec 0 i in
      let v = String.sub spec (i + 1) (String.length spec - i - 1) in
      (match float_of_string_opt v with
       | Some p when f <> "" -> tols := (f, p) :: !tols
       | _ -> bad ())
    | None -> bad ()
  in
  (* --gate takes its two run specs only when both follow it, so it
     reads the rest of the line itself and hands back what it leaves. *)
  let rec parse args =
    parse_args ~anon:no_anon
      [ ("--file", Arg.Set_string file, "");
        ( "--diff",
          Arg.Tuple
            [ run_spec (fun a -> diff_a := a);
              run_spec (fun b -> diff := Some (!diff_a, b)) ],
          "" );
        ( "--gate",
          Arg.Rest_all
            (function
              | a :: b :: rest when is_spec a && is_spec b ->
                gate := Some (a, b);
                parse rest
              | rest ->
                gate := Some ("prev", "last");
                parse rest),
          "" );
        ("--tol", Arg.String tol, "");
        ("--list", Arg.Unit ignore, "") ]
      args
  in
  parse args;
  match Runstore.load ~path:!file () with
  | Error msg ->
    Printf.eprintf "levee history: %s\n" msg;
    exit 2
  | Ok rs ->
    let get spec =
      match Runstore.find rs spec with
      | Ok r -> r
      | Error msg ->
        Printf.eprintf "levee history: %s: %s\n" spec msg;
        exit 2
    in
    (match (!gate, !diff) with
     | Some (a, b), _ ->
       let a = get a and b = get b in
       print_string (Runstore.diff_human a b);
       (* --tol overrides win: tolerances are consulted first-match. *)
       let tolerances = List.rev !tols @ Runstore.default_tolerances in
       let violations = Runstore.gate ~tolerances a b in
       print_string (Runstore.gate_human violations);
       exit (if violations = [] then 0 else 1)
     | None, Some (a, b) ->
       print_string (Runstore.diff_human (get a) (get b));
       exit 0
     | None, None ->
       print_string (Runstore.list_human rs);
       exit 0)

(* levee conc [--threads N] [--sched-seed S] [--jobs N] [--json]
   [--record FILE] *)
let run_conc args =
  let module W = Levee_workloads in
  let threads = ref 4 in
  let seed = ref 0 in
  parse_args ~anon:no_anon
    [ json_spec; record_spec; jobs_spec; ("--threads", Arg.Set_int threads, "");
      ("--sched-seed", Arg.Set_int seed, "") ]
    args;
  (* The worker cap lives with the workload (Webstack.max_workers), so
     the conc and serve CLIs can't drift from what the machine supports. *)
  (try W.Webstack.check_workers ~flag:"--threads" !threads with
   | Invalid_argument msg ->
     Printf.eprintf "levee conc: %s\n" msg;
     exit 2);
  let w = W.Webstack.concurrent ~threads:!threads in
  let prog = W.Workload.compile w in
  let stores =
    [ M.Safestore.Simple_array; M.Safestore.Two_level; M.Safestore.Hashtable ]
  in
  let cells =
    List.concat_map
      (fun prot ->
        (* CPI is the store client: sweep its organisations; the other
           protections only see the default array. *)
        if prot = P.Cpi then List.map (fun s -> (prot, s)) stores
        else [ (prot, M.Safestore.Simple_array) ])
      [ P.Vanilla; P.Safe_stack; P.Cps; P.Cpi ]
  in
  let runs =
    Pool.sweep ~jobs:!jobs
      (fun (prot, store_impl) ->
        let b = P.build ~store_impl prot prog in
        ( prot, store_impl, b.P.stats,
          M.Interp.run_program ~sched_seed:!seed ~fuel:w.W.Workload.fuel
            b.P.prog b.P.config ))
      cells
  in
  let base =
    match runs with (_, _, _, r) :: _ -> r | [] -> assert false
  in
  let check (r : M.Interp.result) =
    Engine.exited r
    && r.M.Interp.checksum = base.M.Interp.checksum
    && r.M.Interp.output = base.M.Interp.output
    && r.M.Interp.races = 0
  in
  (* The journal is a pure function of (--threads, --sched-seed): results
     come back in cell order whatever the pool width, and wall_us is
     zeroed, so any --jobs emits the identical document and record. *)
  let j =
    Journal.create
      ~target:(Printf.sprintf "%s-s%d" w.W.Workload.name !seed) ()
  in
  List.iter
    (fun (protection, store_impl, st, r) ->
      Journal.record j
        (Engine.entry ~workload:w.W.Workload.name ~protection ~store_impl
           ~ok:(check r) ~wall_us:0 (Engine.Ran (st, r))))
    runs;
  let human _ =
    String.concat ""
      (Printf.sprintf "%-18s %-10s %-12s %10s %8s %6s %6s\n" "protection"
         "store" "outcome" "cycles" "ctxsw" "races" "ok"
      :: List.map
           (fun (prot, store_impl, _, (r : M.Interp.result)) ->
             Printf.sprintf "%-18s %-10s %-12s %10d %8d %6d %6s\n"
               (P.protection_name prot) (M.Safestore.impl_name store_impl)
               (M.Trap.outcome_to_string r.M.Interp.outcome)
               r.M.Interp.cycles r.M.Interp.ctx_switches r.M.Interp.races
               (if check r then "yes" else "NO"))
           runs
      @ [ Printf.sprintf "[conc] threads=%d sched-seed=%d checksum=%d\n"
            !threads !seed base.M.Interp.checksum ])
  in
  finish ~doc:Journal.to_json ~human
    ~records:(fun j -> [ Journal.to_record ~kind:"conc" ~seed:!seed j ])
    ~ok:(fun _ -> List.for_all (fun (_, _, _, r) -> check r) runs)
    j

(* levee serve [--json] [--jobs N] [--seeds N] [--workers N] [--shards N]
   [--requests N] [--no-faults] [--record FILE] *)
let run_serve args =
  let module Serve = Levee_harness.Serve in
  let cfg = ref Serve.default in
  let set f = Arg.Int (fun n -> cfg := f !cfg n) in
  parse_args ~anon:no_anon
    [ json_spec; record_spec; jobs_spec;
      ( "--no-faults",
        Arg.Unit (fun () -> cfg := { !cfg with Serve.faulted = false }),
        "" );
      seeds_spec max_int (fun n ->
          cfg := { !cfg with Serve.seeds = List.init n Fun.id });
      ("--workers", set (fun c n -> { c with Serve.workers = n }), "");
      ("--shards", set (fun c n -> { c with Serve.shards = n }), "");
      ("--requests", set (fun c n -> { c with Serve.requests = n }), "") ]
    args;
  let rep =
    try Serve.run ~jobs:!jobs !cfg with
    | Invalid_argument msg ->
      Printf.eprintf "levee serve: %s\n" msg;
      exit 2
  in
  (* Every metric is in simulated cycles (wall_us is zero), so the
     appended records are byte-identical whatever --jobs was. *)
  finish ~doc:Serve.to_json ~human:Serve.to_human ~records:Serve.to_records
    ~ok:Serve.invariants_ok rep

(* ---------- levee [options] file.c ---------- *)

let run_file args =
  let protection = ref P.Cpi in
  let emit_ir = ref false in
  let stats = ref false in
  let time = ref false in
  let input = ref [||] in
  let fuel = ref 50_000_000 in
  let store_impl = ref M.Safestore.Simple_array in
  let isolation = ref M.Config.Info_hiding in
  let file = ref None in
  let matrix = ref false in
  let json_out = ref None in
  let sched_seed = ref 0 in
  let input_words spec =
    input :=
      Array.of_list
        (List.filter_map
           (fun s ->
             if s = "" then None
             else
               match int_of_string_opt s with
               | Some n -> Some n
               | None -> raise (Arg.Bad ("bad input word " ^ s)))
           (String.split_on_char ',' spec))
  in
  let stores =
    [ ("array", M.Safestore.Simple_array); ("two-level", M.Safestore.Two_level);
      ("hash", M.Safestore.Hashtable) ]
  in
  parse_args
    ~anon:(fun f -> file := Some f)
    (List.map
       (fun (flag, p) -> (flag, Arg.Unit (fun () -> protection := p), ""))
       [ ("-fcpi", P.Cpi); ("-fcps", P.Cps);
         ("-fstack-protector-safe", P.Safe_stack); ("-fsoftbound", P.Softbound);
         ("-fcfi", P.Cfi); ("-fcfi-type", P.Cfi_type);
         ("-fcpi-crypt", P.Cpi_crypt); ("-fcookies", P.Cookies);
         ("-fvanilla", P.Vanilla); ("-fhardened", P.Hardened);
         ("-fcpi-debug", P.Cpi_debug) ]
    @ [ ("-matrix", Arg.Set matrix, ""); ("-jobs", jobs_arg, "");
        ("-json", Arg.String (fun f -> json_out := Some f), "");
        ("-emit-ir", Arg.Set emit_ir, ""); ("-stats", Arg.Set stats, "");
        ("-time", Arg.Set time, "");
        ("-sfi", Arg.Unit (fun () -> isolation := M.Config.Sfi), "");
        ("-input", Arg.String input_words, ""); ("-fuel", Arg.Set_int fuel, "");
        ("--sched-seed", Arg.Set_int sched_seed, "");
        ( "-store",
          Arg.Symbol
            (List.map fst stores, fun s -> store_impl := List.assoc s stores),
          "" ) ])
    args;
  let file = match !file with Some f -> f | None -> usage () in
  let prog = compile_or_die file in
  let build prot =
    P.build ~store_impl:!store_impl ~isolation:!isolation prot prog
  in
  (* [t0] starts the entry's wall clock: -matrix times the build too. *)
  let run t0 (b : P.built) =
    let r =
      M.Interp.run_program ~input:!input ~fuel:!fuel ~sched_seed:!sched_seed
        b.P.prog b.P.config
    in
    ( b.P.protection, b.P.stats, r,
      int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) )
  in
  let write_journal runs =
    match !json_out with
    | None -> ()
    | Some path ->
      let j = Journal.create ~jobs:!jobs ~target:(Filename.basename file) () in
      List.iter
        (fun (protection, st, r, wall_us) ->
          Journal.record j
            (Engine.entry ~workload:(Filename.basename file) ~protection
               ~store_impl:!store_impl ~ok:(Engine.exited r) ~wall_us
               (Engine.Ran (st, r))))
        runs;
      (try
         let oc = open_out path in
         output_string oc (Journal.to_json j);
         close_out oc
       with Sys_error msg ->
         Printf.eprintf "levee: cannot write journal: %s\n" msg;
         exit 2)
  in
  if !matrix then begin
    (* Build + run the file under every protection, fanned out over the
       pool; vanilla is the behavioural reference. *)
    let runs =
      Pool.sweep ~jobs:!jobs
        (fun prot ->
          let t0 = Unix.gettimeofday () in
          run t0 (build prot))
        P.all_protections
    in
    let base =
      match List.find_opt (fun (p, _, _, _) -> p = P.Vanilla) runs with
      | Some (_, _, r, _) -> r
      | None -> assert false
    in
    Printf.printf "%-18s %-14s %10s %9s %8s  %s\n" "protection" "outcome"
      "cycles" "overhead" "memops" "agrees";
    let divergent = ref 0 in
    List.iter
      (fun (prot, _, (r : M.Interp.result), _) ->
        let agrees =
          r.M.Interp.checksum = base.M.Interp.checksum
          && r.M.Interp.output = base.M.Interp.output
          && r.M.Interp.outcome = base.M.Interp.outcome
        in
        if not agrees then incr divergent;
        Printf.printf "%-18s %-14s %10d %8.1f%% %8d  %s\n"
          (P.protection_name prot)
          (M.Trap.outcome_to_string r.M.Interp.outcome)
          r.M.Interp.cycles
          (Levee_support.Stats.overhead_pct ~base:base.M.Interp.cycles
             ~instrumented:r.M.Interp.cycles)
          r.M.Interp.mem_ops
          (if agrees then "yes" else "NO"))
      runs;
    write_journal runs;
    (match base.M.Interp.outcome with
     | M.Trap.Exit 0 -> ()
     | o ->
       Printf.eprintf "[levee] vanilla run: %s\n" (M.Trap.outcome_to_string o);
       exit 101);
    exit (if !divergent = 0 then 0 else 1)
  end;
  let built = build !protection in
  if !stats then begin
    let s = built.P.stats in
    Printf.printf "protection:            %s\n" (P.protection_name !protection);
    Printf.printf "functions:             %d\n" s.Levee_core.Stats.funcs_total;
    Printf.printf "FNUStack:              %.1f%%\n"
      (100. *. Levee_core.Stats.fnustack s);
    Printf.printf "memory ops:            %d\n" s.Levee_core.Stats.mem_ops_total;
    Printf.printf "instrumented mem ops:  %d (%.1f%%)\n"
      s.Levee_core.Stats.mem_ops_instrumented
      (100. *. Levee_core.Stats.mo_instrumented s);
    Printf.printf "checked mem ops:       %d\n" s.Levee_core.Stats.mem_ops_checked;
    Printf.printf "checks elided:         %d\n" s.Levee_core.Stats.checks_elided;
    Printf.printf "demoted mem ops:       %d\n" s.Levee_core.Stats.mem_ops_demoted;
    Printf.printf "indirect calls:        %d\n" s.Levee_core.Stats.indirect_calls
  end;
  if !emit_ir then begin
    print_string (Levee_ir.Printer.program built.P.prog);
    exit 0
  end;
  let ((_, _, r, _) as single) = run (Unix.gettimeofday ()) built in
  write_journal [ single ];
  print_string r.M.Interp.output;
  if !time then begin
    Printf.printf "[levee] cycles:  %d\n" r.M.Interp.cycles;
    Printf.printf "[levee] instrs:  %d\n" r.M.Interp.instrs;
    Printf.printf "[levee] mem ops: %d (%d instrumented)\n" r.M.Interp.mem_ops
      r.M.Interp.instrumented_mem_ops
  end;
  match r.M.Interp.outcome with
  | M.Trap.Exit n -> exit n
  | o ->
    Printf.eprintf "[levee] %s\n" (M.Trap.outcome_to_string o);
    exit 101

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "analyze" :: rest -> run_analyze rest
  | "crossval" :: rest -> run_crossval rest
  | "faults" :: rest -> run_faults rest
  | "conc" :: rest -> run_conc rest
  | "serve" :: rest -> run_serve rest
  | "history" :: rest -> run_history rest
  | args -> run_file args
