(* The parallel benchmark execution engine (see engine.mli).

   Work is split so that all nondeterminism (domain scheduling) is
   confined to *when* a cell executes: results are integrated into the
   memo and the journal strictly in submission order, on the submitting
   domain, so a --jobs 8 run journals identically to --jobs 1. *)

module P = Levee_core.Pipeline
module W = Levee_workloads
module M = Levee_machine
module Pool = Levee_support.Pool
module Journal = Levee_support.Journal

type cell = {
  workload : W.Workload.t;
  protection : P.protection;
  store_impl : M.Safestore.impl;
}

let cell ?(store_impl = M.Safestore.Simple_array) workload protection =
  { workload; protection; store_impl }

type exec = {
  result : M.Interp.result;
  stats : Levee_core.Stats.t;  (* the build's instrumentation statistics *)
  wall_us : int;
}

type t = {
  pool : Pool.t;
  fuel_cap : int option;
  m : Mutex.t;                               (* guards memo + failures *)
  memo : (string * string, exec) Hashtbl.t;
  mutable journal : Journal.t option;
  mutable rev_vanilla_failures : (string * M.Trap.outcome) list;
  mutable rev_harness_failures : (string * string) list;
}

let create ?fuel_cap ~jobs () =
  { pool = Pool.create ~jobs; fuel_cap; m = Mutex.create ();
    memo = Hashtbl.create 64; journal = None; rev_vanilla_failures = [];
    rev_harness_failures = [] }

let jobs t = Pool.jobs t.pool
let pool t = t.pool
let set_journal t j = t.journal <- j
let shutdown t = Pool.shutdown t.pool

let key c =
  ( c.workload.W.Workload.name,
    P.protection_name c.protection ^ M.Safestore.impl_name c.store_impl )

let exec_cell t c =
  let w = c.workload in
  let fuel =
    match t.fuel_cap with
    | Some cap -> min cap w.W.Workload.fuel
    | None -> w.W.Workload.fuel
  in
  let t0 = Unix.gettimeofday () in
  let prog = W.Workload.compile w in
  let b = P.build ~store_impl:c.store_impl c.protection prog in
  let result =
    M.Interp.run_program ~input:w.W.Workload.input ~fuel b.P.prog b.P.config
  in
  let wall_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  { result; stats = b.P.stats; wall_us }

type measured =
  | Ran of Levee_core.Stats.t * M.Interp.result
  | Not_run of string

let entry ~workload ~protection ~store_impl ~ok ~wall_us measured
    : Journal.entry =
  let e : Journal.entry =
    { workload; protection = P.protection_name protection;
      store = M.Safestore.impl_name store_impl; outcome = "";
      status = (if ok then 0 else 1); cycles = 0; instrs = 0; mem_ops = 0;
      instrumented_mem_ops = 0; store_accesses = 0; store_footprint = 0;
      heap_peak = 0; checksum = 0; checks_elided = 0; mem_ops_demoted = 0;
      threads = 0; ctx_switches = 0; races = 0; wall_us }
  in
  match measured with
  | Not_run outcome -> { e with outcome }
  | Ran (st, r) ->
    { e with
      outcome = M.Trap.outcome_to_string r.M.Interp.outcome;
      cycles = r.M.Interp.cycles; instrs = r.M.Interp.instrs;
      mem_ops = r.M.Interp.mem_ops;
      instrumented_mem_ops = r.M.Interp.instrumented_mem_ops;
      store_accesses = r.M.Interp.store_accesses;
      store_footprint = r.M.Interp.store_footprint;
      heap_peak = r.M.Interp.heap_peak; checksum = r.M.Interp.checksum;
      checks_elided = st.Levee_core.Stats.checks_elided;
      mem_ops_demoted = st.Levee_core.Stats.mem_ops_demoted;
      threads = r.M.Interp.threads; ctx_switches = r.M.Interp.ctx_switches;
      races = r.M.Interp.races }

let exited (r : M.Interp.result) = r.M.Interp.outcome = M.Trap.Exit 0

(* Integrate one freshly executed cell: memoize, journal, track vanilla
   failures. Runs on the submitting domain, in submission order. *)
let note t c (e : exec) =
  Mutex.lock t.m;
  Hashtbl.replace t.memo (key c) e;
  (match e.result.M.Interp.outcome with
   | M.Trap.Exit 0 -> ()
   | M.Trap.Fuel_exhausted -> ()
     (* a clamped budget (--fuel-cap smoke runs) is not a harness bug *)
   | o ->
     if c.protection = P.Vanilla then
       t.rev_vanilla_failures <-
         (c.workload.W.Workload.name, o) :: t.rev_vanilla_failures);
  Mutex.unlock t.m;
  (match e.result.M.Interp.outcome with
   | M.Trap.Exit 0 -> ()
   | o ->
     Printf.printf "!! %s under %s: %s\n" c.workload.W.Workload.name
       (P.protection_name c.protection) (M.Trap.outcome_to_string o));
  match t.journal with
  | Some j ->
    Journal.record j
      (entry ~workload:c.workload.W.Workload.name ~protection:c.protection
         ~store_impl:c.store_impl ~ok:(exited e.result) ~wall_us:e.wall_us
         (Ran (e.stats, e.result)))
  | None -> ()

let find_memo t k =
  Mutex.lock t.m;
  let r = Hashtbl.find_opt t.memo k in
  Mutex.unlock t.m;
  r

(* Record a cell the harness could not execute: journal a synthetic failed
   entry and remember it for the end-of-run report. Runs on the submitting
   domain. *)
let note_failure t c ~reason =
  let w = c.workload.W.Workload.name in
  Mutex.lock t.m;
  t.rev_harness_failures <-
    (w ^ "/" ^ P.protection_name c.protection, reason)
    :: t.rev_harness_failures;
  Mutex.unlock t.m;
  match t.journal with
  | Some j ->
    Journal.record j
      (entry ~workload:w ~protection:c.protection ~store_impl:c.store_impl
         ~ok:false ~wall_us:0 (Not_run reason))
  | None -> ()

let prefetch t cells =
  (* Dedupe while preserving first-occurrence order, and drop cells that
     are already memoized (their executions were journalled earlier). *)
  let seen = Hashtbl.create 64 in
  let fresh =
    List.filter
      (fun c ->
        let k = key c in
        if Hashtbl.mem seen k || find_memo t k <> None then false
        else (Hashtbl.add seen k (); true))
      cells
  in
  List.iter2
    (fun c -> function
      | Ok e -> note t c e
      | Error exn ->
        (* A crashed harness task (compile/build bug) must not take the
           whole run down: journal it as a failed cell and move on. The
           cell stays unmemoized, so a later direct lookup re-raises. *)
        note_failure t c
          ~reason:("harness-exception(" ^ Printexc.to_string exn ^ ")"))
    fresh
    (Pool.map t.pool (exec_cell t) fresh)

let run_workload t ?(store_impl = M.Safestore.Simple_array) w protection =
  let c = { workload = w; protection; store_impl } in
  match find_memo t (key c) with
  | Some e -> e.result
  | None ->
    let e = exec_cell t c in
    note t c e;
    e.result

let overhead t w prot =
  let base = run_workload t w P.Vanilla in
  let r = run_workload t w prot in
  Levee_support.Stats.overhead_pct ~base:base.M.Interp.cycles
    ~instrumented:r.M.Interp.cycles

let vanilla_failures t =
  Mutex.lock t.m;
  let l = List.rev t.rev_vanilla_failures in
  Mutex.unlock t.m;
  l

let harness_failures t =
  Mutex.lock t.m;
  let l = List.rev t.rev_harness_failures in
  Mutex.unlock t.m;
  l
