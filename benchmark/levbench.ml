(* The repository benchmark (see README.md in this directory).

   levbench --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
   levbench --self-test

   Untraced (--trace 0): set the workload up several times and keep the
   median as setup_s, then run rounds of cells through the entry points
   users call (Engine.prefetch, Ripe.run_matrix, Faults.run) until S
   seconds are spent, check every output, and print the end-to-end
   metrics.

   Traced (--trace 1): alternate a re-drive of round 0 through the
   layers' public functions, one span per layer call, with the same
   round through the user path, until S seconds are spent; check that
   the re-drive computed exactly what the user path computed, and print
   the per-layer metrics.

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; the exit code is 0 iff
   every cell was correct. *)

module P = Levee_core.Pipeline
module M = Levee_machine
module W = Levee_workloads
module A = Levee_attacks
module Ripe = Levee_attacks.Ripe
module Engine = Levee_harness.Engine
module Faults = Levee_harness.Faults
module Journal = Levee_support.Journal
module Lower = Levee_minic.Lower
module Stats = Levee_core.Stats

let now = Unix.gettimeofday
let say fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---------- small statistics ---------- *)

let sorted l = Array.of_list (List.sort compare l)

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let rank q n = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let percentile q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(rank q n)

(* The [q] quantile estimated as the mean of the values from the
   [q - 0.05] to the [q + 0.05] quantile. Where values are sparse, as in
   gen-build's tail, neighbouring ranks lie several per cent apart, and a
   single rank would jump between them from run to run. *)
let percentile_band q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let lo = rank (q -. 0.05) n and hi = rank (q +. 0.05) n in
    Array.fold_left ( +. ) 0.0 (Array.sub a lo (hi - lo + 1)) /. float_of_int (hi - lo + 1)

(* Geometric mean of ratios, as a percentage. *)
let geomean_pct ratios =
  if ratios = [] then 0.0
  else
    let logs = List.fold_left (fun acc r -> acc +. log r) 0.0 ratios in
    exp (logs /. float_of_int (List.length ratios)) *. 100.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---------- the result line ---------- *)

(* Shortest decimal form that reads back as the same float. *)
let num v =
  if not (Float.is_finite v) then "0"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || float_of_string s = v then s else go (p + 1)
    in
    go 15

let print_result ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (num value) unit)
          metrics))

(* ---------- rounds ---------- *)

(* What one round leaves behind: timed seconds, each cell's wall time
   keyed by the cell, the number of failed cells, and a fingerprint of
   every deterministic result as (key, value) pairs in execution order.
   Fingerprints are compared across rounds and against the traced
   re-drive. *)
type round = {
  wall : float;
  cell_ms : (string * float) list;
  failed : int;
  fps : (string * string) list;
}

let cells r = List.length r.cell_ms

(* Count (and show the first few) differing fingerprints. *)
let diff_fps what a b =
  let shown = ref 0 in
  let rec go a b =
    match a, b with
    | [], [] -> 0
    | (ka, va) :: a', (kb, vb) :: b' ->
      if ka = kb && va = vb then go a' b'
      else begin
        if !shown < 5 then
          say "levbench: %s differs:\n  %s -> %s\n  %s -> %s" what ka va kb vb;
        incr shown;
        1 + go a' b'
      end
    | l, [] | [], l ->
      say "levbench: %s: %d results missing" what (List.length l);
      List.length l
  in
  go a b

(* Results of a later round whose key round 0 also has must be equal. *)
let drift r0 r =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) r0.fps;
  List.length
    (List.filter
       (fun (k, v) ->
         match Hashtbl.find_opt tbl k with
         | Some v0 when v0 <> v ->
           say "levbench: %s changed between rounds: %s -> %s" k v0 v;
           true
         | _ -> false)
       r.fps)

(* ---------- engine workloads: spec-interp and gen-build ---------- *)

type engine_wl = {
  fuel_cap : int;
  prots : P.protection list;
  programs : unit -> W.Workload.t list;  (* generates them; part of set-up *)
}

type cell_out = {
  w : W.Workload.t;
  prot : P.protection;
  res : M.Interp.result option;  (* None: the harness failed the cell *)
  elided : int;
}

let fingerprint c =
  ( c.w.W.Workload.name ^ "|" ^ P.protection_name c.prot,
    match c.res with
    | None -> "harness-failure"
    | Some r ->
      Printf.sprintf "%s|instrs=%d|cycles=%d|checksum=%d|out=%s|elided=%d"
        (M.Trap.outcome_to_string r.M.Interp.outcome)
        r.M.Interp.instrs r.M.Interp.cycles r.M.Interp.checksum
        (Digest.to_hex (Digest.string r.M.Interp.output))
        c.elided )

(* A cell fails when the harness failed it, when vanilla trapped, or when
   a protection changed the outcome, instruction count, checksum or
   output of the same program's vanilla cell at the same fuel. *)
let engine_failures outs =
  let vanilla = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if c.prot = P.Vanilla then Hashtbl.replace vanilla c.w.W.Workload.name c.res)
    outs;
  let observable (r : M.Interp.result) =
    ( M.Trap.outcome_to_string r.M.Interp.outcome, r.M.Interp.instrs,
      r.M.Interp.checksum, r.M.Interp.output )
  in
  List.filter
    (fun c ->
      match c.res, Hashtbl.find_opt vanilla c.w.W.Workload.name with
      | None, _ | _, None | _, Some None -> true
      | Some r, Some (Some v) ->
        if c.prot = P.Vanilla then
          (match r.M.Interp.outcome with
           | M.Trap.Exit 0 | M.Trap.Fuel_exhausted -> false
           | _ -> true)
        else observable r <> observable v)
    outs

(* One round through the user path: Engine.prefetch at jobs 1, timed.
   Per-cell wall times come from the journal the engine writes; results
   come back from the engine's memo. *)
let engine_round wl programs =
  let cells =
    List.concat_map (fun w -> List.map (fun p -> Engine.cell w p) wl.prots) programs
  in
  let eng = Engine.create ~fuel_cap:wl.fuel_cap ~jobs:1 () in
  let journal = Journal.create ~jobs:1 ~target:"levbench" () in
  Engine.set_journal eng (Some journal);
  let t0 = now () in
  Engine.prefetch eng cells;
  let wall = now () -. t0 in
  let harness_failed = Engine.harness_failures eng in
  let entries = Hashtbl.create 512 in
  List.iter
    (fun (e : Journal.entry) ->
      Hashtbl.replace entries (e.Journal.workload, e.Journal.protection) e)
    (Journal.entries journal);
  let outs, cell_ms =
    List.split
      (List.map
         (fun (c : Engine.cell) ->
           let name = c.Engine.workload.W.Workload.name in
           let pn = P.protection_name c.Engine.protection in
           let e = Hashtbl.find_opt entries (name, pn) in
           let ok = e <> None && not (List.mem_assoc (name ^ "/" ^ pn) harness_failed) in
           let res =
             if ok then Some (Engine.run_workload eng c.Engine.workload c.Engine.protection)
             else None
           in
           let elided, us =
             match e with
             | Some e -> (e.Journal.checks_elided, e.Journal.wall_us)
             | None -> (0, 0)
           in
           ( { w = c.Engine.workload; prot = c.Engine.protection; res; elided },
             (name ^ "|" ^ pn, float_of_int us /. 1e3) ))
         cells)
  in
  Engine.shutdown eng;
  let failed = engine_failures outs in
  List.iteri
    (fun i c ->
      if i < 5 then
        let k, v = fingerprint c in
        say "levbench: failed cell %s -> %s" k v)
    failed;
  ( { wall; cell_ms; failed = List.length failed; fps = List.map fingerprint outs },
    outs )

let sim_cycles_pct outs prot =
  let cycles = Hashtbl.create 64 in
  List.iter
    (fun c ->
      match c.res with
      | Some r ->
        Hashtbl.replace cycles (c.w.W.Workload.name, c.prot)
          (float_of_int r.M.Interp.cycles)
      | None -> ())
    outs;
  geomean_pct
    (List.filter_map
       (fun c ->
         let name = c.w.W.Workload.name in
         match Hashtbl.find_opt cycles (name, P.Vanilla), Hashtbl.find_opt cycles (name, prot) with
         | Some v, Some p when c.prot = P.Vanilla && v > 0.0 -> Some (p /. v)
         | _ -> None)
       outs)

(* Set-up of an engine round: the front end for every program. With
   [cache] it goes through Workload.compile, which keeps the result for
   the cells; otherwise the same Lower.compile runs and its result is
   dropped, so repeated set-ups each pay the full cost. *)
let front_end ~cache programs =
  List.iter
    (fun (w : W.Workload.t) ->
      if cache then ignore (W.Workload.compile w)
      else ignore (Lower.compile ~name:w.W.Workload.name w.W.Workload.source))
    programs

let spec_interp =
  { fuel_cap = 1_000_000;
    prots = [ P.Vanilla; P.Safe_stack; P.Cps; P.Cpi; P.Cfi_type; P.Cpi_crypt ];
    programs = (fun () -> W.Spec.all) }

let bundled = W.Spec.all @ W.Phoronix.all @ W.Webstack.all @ W.Base_system.all

(* Six programs drawn fresh for each seed, one on each rung of a
   50..400-function ladder, so every seed asks for about the same pass
   and loader work. *)
let generated ~seed =
  List.init 6 (fun k ->
      let gseed = Hashtbl.hash (seed, k) in
      let funcs = 50 + (70 * k) in
      { W.Workload.name = Printf.sprintf "gen-%d-%d" seed k;
        lang = W.Workload.C;
        description = Printf.sprintf "generated, %d functions" funcs;
        source = Gen.source ~seed:gseed ~funcs;
        input = [||];
        fuel = 50_000_000 })

let gen_build ~seed =
  { fuel_cap = 5_000;
    prots = P.all_protections;
    programs = (fun () -> bundled @ generated ~seed) }

(* ---------- attack-campaign ---------- *)

let ripe_prots =
  [ P.Vanilla; P.Hardened; P.Cookies; P.Safe_stack; P.Cfi; P.Cps; P.Cpi;
    P.Softbound; P.Cfi_type; P.Cpi_crypt ]

(* The protections that must stop every RIPE attack. *)
let never_hijacked = [ P.Cps; P.Cpi; P.Cpi_crypt; P.Softbound ]

(* Campaign seeds per round; with the RIPE matrix a round is 13 cells. *)
let seeds_per_round = 12

let campaign_seeds ~seed r =
  List.init seeds_per_round (fun i -> (seed * 100_000) + (r * 1000) + i)

let ripe_fp (run : Ripe.run) =
  ( Printf.sprintf "ripe|%s|%s|%s" run.Ripe.instance.Ripe.victim.A.Victims.vid
      (A.Attack.payload_name run.Ripe.instance.Ripe.payload)
      (P.protection_name run.Ripe.protection),
    M.Trap.outcome_to_string run.Ripe.outcome )

let fault_fp ~cseed ~subject ~plan ~prot ~store ~sched_seed ~cls ~outcome
    ~instrs ~cycles ~checksum =
  ( Printf.sprintf "faults|%d|%s|%s|%s|%s|%d" cseed subject plan
      (P.protection_name prot) (M.Safestore.impl_name store) sched_seed,
    Printf.sprintf "%s|%s|instrs=%d|cycles=%d|checksum=%d" cls outcome instrs
      cycles checksum )

let report_fps cseed rep =
  List.map
    (fun (r : Faults.run) ->
      fault_fp ~cseed ~subject:r.Faults.r_subject ~plan:r.Faults.r_plan
        ~prot:r.Faults.r_protection ~store:r.Faults.r_store
        ~sched_seed:r.Faults.r_sched_seed ~cls:r.Faults.r_class
        ~outcome:r.Faults.r_outcome ~instrs:r.Faults.r_instrs
        ~cycles:r.Faults.r_cycles ~checksum:r.Faults.r_checksum)
    (Faults.runs rep)

type attack_round = {
  ar : round;
  faults_wall : float;      (* seconds inside Faults.run *)
  invariants_failed : int;  (* (seed, invariant) pairs that broke *)
}

(* One round through the user path: the RIPE matrix (one cell), then one
   Faults.run at jobs 2 per campaign seed (one cell each). *)
let attack_round ~seed r =
  let t0 = now () in
  let ripe =
    try Ok (List.concat_map (fun (s : Ripe.summary) -> s.Ripe.runs)
              (Ripe.run_matrix ~protections:ripe_prots ()))
    with e -> Error e
  in
  let ripe_ms = (now () -. t0) *. 1e3 in
  let faults =
    List.map
      (fun cseed ->
        let c = Faults.smoke ~seed:cseed () in
        let t = now () in
        let rep = try Ok (Faults.run ~jobs:2 c) with e -> Error e in
        (cseed, rep, (now () -. t) *. 1e3))
      (campaign_seeds ~seed r)
  in
  let wall = now () -. t0 in
  let ripe_failed =
    match ripe with
    | Ok runs ->
      let bad =
        List.filter
          (fun (run : Ripe.run) ->
            List.mem run.Ripe.protection never_hijacked && Ripe.succeeded run)
          runs
      in
      List.iter (fun run -> say "levbench: RIPE hijack %s" (fst (ripe_fp run))) bad;
      bad <> []
    | Error e ->
      say "levbench: RIPE matrix raised %s" (Printexc.to_string e);
      true
  in
  let bad_inv = ref 0 and bad_cells = ref 0 in
  List.iter
    (fun (cseed, rep, _) ->
      match rep with
      | Ok rep ->
        let broken = List.filter (fun (_, ok) -> not ok) (Faults.invariants rep) in
        bad_inv := !bad_inv + List.length broken;
        if broken <> [] then incr bad_cells;
        List.iter (fun (n, _) -> say "levbench: seed %d breaks %s" cseed n) broken
      | Error e ->
        incr bad_cells;
        say "levbench: campaign seed %d raised %s" cseed (Printexc.to_string e))
    faults;
  let fps =
    (match ripe with Ok runs -> List.map ripe_fp runs | Error _ -> [ ("ripe", "raised") ])
    @ List.concat_map
        (fun (cseed, rep, _) ->
          match rep with
          | Ok rep -> report_fps cseed rep
          | Error _ -> [ (Printf.sprintf "faults|%d" cseed, "raised") ])
        faults
  in
  { ar =
      { wall;
        cell_ms =
          ("ripe", ripe_ms)
          :: List.map (fun (cseed, _, ms) -> (Printf.sprintf "faults|%d" cseed, ms)) faults;
        failed = (if ripe_failed then 1 else 0) + !bad_cells;
        fps };
    faults_wall = List.fold_left (fun a (_, _, ms) -> a +. (ms /. 1e3)) 0.0 faults;
    invariants_failed = !bad_inv }

(* Faults' classifier; the re-drive rebuilds the campaign from its
   layers, so it classifies the runs itself. *)
let classify ~(baseline : M.Interp.result) (r : M.Interp.result) =
  match r.M.Interp.outcome with
  | M.Trap.Hijacked _ -> "hijacked"
  | M.Trap.Trapped _ -> "trapped"
  | M.Trap.Crash _ -> "crash"
  | M.Trap.Fuel_exhausted -> "fuel-exhausted"
  | M.Trap.Exit _ ->
    if r.M.Interp.outcome = baseline.M.Interp.outcome
       && r.M.Interp.output = baseline.M.Interp.output
       && r.M.Interp.checksum = baseline.M.Interp.checksum
    then "masked"
    else "benign"

(* Simulated cycles of the campaign's subjects, un-faulted, as a
   percentage of vanilla's. *)
let subject_cycles_pct prot =
  let cycles prot (s : Faults.subject) =
    let b = P.build prot (Lower.compile ~name:s.Faults.sname s.Faults.source) in
    let r =
      M.Interp.run ~input:s.Faults.input ~fuel:s.Faults.fuel
        (M.Loader.load b.P.prog b.P.config)
    in
    float_of_int r.M.Interp.cycles
  in
  geomean_pct
    (List.map
       (fun s -> cycles prot s /. cycles P.Vanilla s)
       (Faults.smoke ()).Faults.subjects)

(* ---------- the traced re-drive ---------- *)

(* Deterministic counts a traced pass accumulates. *)
type counts = {
  mutable src_bytes : int;
  mutable sim_instrs : int;
  mutable sim_cycles : int;
  mutable mem_ops : int;
  mutable instrumented_mem_ops : int;
  mutable store_accesses : int;
  mutable store_footprint : int;
  mutable checks_elided : int;
  mutable mem_ops_demoted : int;
  mutable mem_ops_instrumented : int;
  mutable mem_ops_checked : int;
  mutable ripe_instances : int;
  mutable classes : (string * int) list;        (* fault-run classes *)
  mutable ripe_hijacked : (string * int) list;  (* per protection *)
}

let new_counts () =
  { src_bytes = 0; sim_instrs = 0; sim_cycles = 0; mem_ops = 0;
    instrumented_mem_ops = 0; store_accesses = 0; store_footprint = 0;
    checks_elided = 0; mem_ops_demoted = 0; mem_ops_instrumented = 0;
    mem_ops_checked = 0; ripe_instances = 0; classes = []; ripe_hijacked = [] }

let bump l k = (k, 1 + Option.value ~default:0 (List.assoc_opt k l)) :: List.remove_assoc k l

let counts_key k =
  ( [ k.src_bytes; k.sim_instrs; k.sim_cycles; k.mem_ops; k.instrumented_mem_ops;
      k.store_accesses; k.store_footprint; k.checks_elided; k.mem_ops_demoted;
      k.mem_ops_instrumented; k.mem_ops_checked; k.ripe_instances ],
    List.sort compare k.classes,
    List.sort compare k.ripe_hijacked )

let count_build k (b : P.built) =
  let s = b.P.stats in
  k.checks_elided <- k.checks_elided + s.Stats.checks_elided;
  k.mem_ops_demoted <- k.mem_ops_demoted + s.Stats.mem_ops_demoted;
  k.mem_ops_instrumented <- k.mem_ops_instrumented + s.Stats.mem_ops_instrumented;
  k.mem_ops_checked <- k.mem_ops_checked + s.Stats.mem_ops_checked

let count_run k (r : M.Interp.result) =
  k.sim_instrs <- k.sim_instrs + r.M.Interp.instrs;
  k.sim_cycles <- k.sim_cycles + r.M.Interp.cycles;
  k.mem_ops <- k.mem_ops + r.M.Interp.mem_ops;
  k.instrumented_mem_ops <- k.instrumented_mem_ops + r.M.Interp.instrumented_mem_ops;
  k.store_accesses <- k.store_accesses + r.M.Interp.store_accesses;
  k.store_footprint <- k.store_footprint + r.M.Interp.store_footprint

let compile tr k ~name src =
  k.src_bytes <- k.src_bytes + String.length src;
  Span.record tr "minic" (fun () -> Lower.compile ~name src)

let build tr k ?store_impl prot prog =
  let b =
    Span.record tr ~prot:(P.protection_name prot) "pipeline" (fun () ->
        P.build ?store_impl prot prog)
  in
  count_build k b;
  b

let load tr (b : P.built) =
  Span.record tr ~prot:(P.protection_name b.P.protection) "loader" (fun () ->
      M.Loader.load b.P.prog b.P.config)

let run tr k prot ?input ?fuel ?faults ?sched_seed img =
  let r =
    Span.record tr ~prot:(P.protection_name prot) "interp" (fun () ->
        M.Interp.run ?input ?fuel ?faults ?sched_seed img)
  in
  count_run k r;
  r

(* The engine cells re-driven through Lower.compile -> Pipeline.build ->
   Loader.load -> Interp.run. Returns the fingerprints (same format as
   [engine_round]'s) and the seconds spent on the cells, after the front
   end. *)
let engine_redrive tr k wl programs =
  let progs =
    List.map
      (fun (w : W.Workload.t) ->
        (w, compile tr k ~name:w.W.Workload.name w.W.Workload.source))
      programs
  in
  let t1 = now () in
  let cell = ref 0 in
  let fps =
    List.concat_map
      (fun ((w : W.Workload.t), prog) ->
        let fuel = min wl.fuel_cap w.W.Workload.fuel in
        List.map
          (fun prot ->
            incr cell;
            Span.set_cell tr !cell;
            match
              let b = build tr k prot prog in
              (b, run tr k prot ~input:w.W.Workload.input ~fuel (load tr b))
            with
            | b, r ->
              fingerprint
                { w; prot; res = Some r; elided = b.P.stats.Stats.checks_elided }
            | exception e ->
              say "levbench: re-drive of %s/%s raised %s" w.W.Workload.name
                (P.protection_name prot) (Printexc.to_string e);
              fingerprint { w; prot; res = None; elided = 0 })
          wl.prots)
      progs
  in
  (fps, now () -. t1)

(* One campaign re-driven in Faults.run's order: per subject and
   configuration, the front end, the vanilla reference and the deployed
   build, then per scheduler seed the un-faulted baseline and every
   plan. *)
let redrive_campaign tr k cseed =
  let c = Faults.smoke ~seed:cseed () in
  Span.record tr "faults" (fun () ->
      List.concat_map
        (fun (s : Faults.subject) ->
          List.concat_map
            (fun (prot, store) ->
              let prog = compile tr k ~name:s.Faults.sname s.Faults.source in
              let reference = load tr (build tr k ~store_impl:store P.Vanilla prog) in
              let deployed =
                if prot = P.Vanilla then reference
                else load tr (build tr k ~store_impl:store prot prog)
              in
              List.concat_map
                (fun sched_seed ->
                  let go ?faults () =
                    run tr k prot ~input:s.Faults.input ~fuel:s.Faults.fuel ?faults
                      ~sched_seed deployed
                  in
                  let baseline = go () in
                  List.map
                    (fun (plan : A.Faultplan.t) ->
                      let faults =
                        Span.record tr "faultplan.resolve" (fun () ->
                            A.Faultplan.resolve ~reference ~deployed plan)
                      in
                      let r = go ~faults () in
                      let cls = classify ~baseline r in
                      k.classes <- bump k.classes cls;
                      fault_fp ~cseed ~subject:s.Faults.sname
                        ~plan:plan.A.Faultplan.name ~prot ~store ~sched_seed ~cls
                        ~outcome:(M.Trap.outcome_to_string r.M.Interp.outcome)
                        ~instrs:r.M.Interp.instrs ~cycles:r.M.Interp.cycles
                        ~checksum:r.M.Interp.checksum)
                    s.Faults.splans)
                s.Faults.sseeds)
            c.Faults.configs)
        c.Faults.subjects)

(* The RIPE matrix re-driven in run_matrix's order. *)
let redrive_ripe tr k =
  let compiled = Span.record tr "ripe.compile" Ripe.compile_victims in
  List.concat_map
    (fun prot ->
      List.concat_map
        (fun ((v : A.Victims.victim), prog, reference) ->
          if v.A.Victims.beyond_ripe then []
          else begin
            let built = build tr k prot prog in
            List.map
              (fun payload ->
                let r =
                  Span.record tr ~prot:(P.protection_name prot) "ripe.run_instance"
                    (fun () ->
                      Ripe.run_instance ~reference built { Ripe.victim = v; payload })
                in
                k.ripe_instances <- k.ripe_instances + 1;
                if Ripe.succeeded r then
                  k.ripe_hijacked <- bump k.ripe_hijacked (P.protection_name prot);
                ripe_fp r)
              v.A.Victims.payloads
          end)
        compiled)
    ripe_prots

(* ---------- workloads as the drivers see them ---------- *)

type workload = {
  setup : cache:bool -> unit;     (* set-up of round 0 *)
  run_round : int -> round;
  cells_repeat : bool;            (* every round runs the same cells *)
  sim_cycles_pct : P.protection -> float;  (* after round 0 ran *)
  redrive : Span.t -> counts -> (string * string) list * float;
      (* fingerprints, seconds of the cells *)
  pool_jobs : int;
  pool_wall : unit -> float;      (* seconds of the last round's pooled part *)
  pool_busy : Span.span list -> float;
  invariants_failed : unit -> int;
}

let engine_workload wl =
  let programs = ref [] and round0 = ref [] in
  { setup =
      (fun ~cache ->
        let ps = wl.programs () in
        front_end ~cache ps;
        if cache then programs := ps;
        Engine.shutdown (Engine.create ~fuel_cap:wl.fuel_cap ~jobs:1 ()));
    run_round =
      (fun r ->
        let round, outs = engine_round wl !programs in
        if r = 0 then round0 := outs;
        round);
    cells_repeat = true;
    sim_cycles_pct = (fun prot -> sim_cycles_pct !round0 prot);
    redrive = (fun tr k -> engine_redrive tr k wl !programs);
    pool_jobs = 1;
    pool_wall = (fun () -> 0.0);
    pool_busy =
      List.fold_left
        (fun acc (s : Span.span) ->
          if s.Span.parent < 0 && s.Span.name <> "minic" then acc +. (s.Span.t1 -. s.Span.t0)
          else acc)
        0.0;
    invariants_failed = (fun () -> 0) }

let attack_workload ~seed =
  let last = ref None in
  let programs =
    List.map
      (fun (s : Faults.subject) -> (s.Faults.sname, s.Faults.source))
      (Faults.smoke ()).Faults.subjects
    @ List.map
        (fun (v : A.Victims.victim) -> (v.A.Victims.vid, v.A.Victims.source))
        A.Victims.all
  in
  { setup =
      (fun ~cache:_ ->
        List.iter (fun cseed -> ignore (Faults.smoke ~seed:cseed ())) (campaign_seeds ~seed 0);
        List.iter (fun (name, src) -> ignore (Lower.compile ~name src)) programs);
    run_round =
      (fun r ->
        let a = attack_round ~seed r in
        last := Some a;
        a.ar);
    cells_repeat = false;
    sim_cycles_pct = subject_cycles_pct;
    redrive =
      (fun tr k ->
        let t0 = now () in
        Span.set_cell tr 0;
        let ripe = redrive_ripe tr k in
        let faults =
          List.concat
            (List.mapi
               (fun i cseed ->
                 Span.set_cell tr (i + 1);
                 redrive_campaign tr k cseed)
               (campaign_seeds ~seed 0))
        in
        (ripe @ faults, now () -. t0));
    pool_jobs = 2;
    pool_wall = (fun () -> match !last with Some a -> a.faults_wall | None -> 0.0);
    pool_busy =
      List.fold_left
        (fun acc (s : Span.span) ->
          if s.Span.name = "faults" then acc +. (s.Span.t1 -. s.Span.t0) else acc)
        0.0;
    invariants_failed =
      (fun () -> match !last with Some a -> a.invariants_failed | None -> 0) }

(* Faults.to_json must not depend on the pool width. *)
let jobs_identity_failures ~seed =
  List.length
    (List.filter
       (fun cseed ->
         let c = Faults.smoke ~seed:cseed () in
         let same =
           Faults.to_json (Faults.run ~jobs:1 c) = Faults.to_json (Faults.run ~jobs:2 c)
         in
         if not same then
           say "levbench: campaign seed %d: Faults.to_json differs at jobs 1 and 2" cseed;
         not same)
       (campaign_seeds ~seed 0))

(* Seconds of one set-up of round 0. *)
let time_setup wl ~cache =
  let t0 = now () in
  wl.setup ~cache;
  now () -. t0

(* ---------- untraced run: the end-to-end metrics ---------- *)

(* Cells the timing metrics rest on; at least 10 lie beyond p90. *)
let min_cells = 100

(* The per-cell times the timing metrics rest on. Other tenants of a
   shared host only ever slow a cell down, so the fastest observations
   are the steadiest estimate of the program's own speed:
   - where every round runs the same cells (spec-interp, gen-build),
     each cell's fastest run;
   - where rounds run new cells (attack-campaign's campaign seeds), the
     cells of the fastest rounds that together hold [min_cells]. *)
let timed_cells ~cells_repeat rounds =
  if cells_repeat then begin
    let best = Hashtbl.create 1024 in
    List.iter
      (fun (r : round) ->
        List.iter
          (fun (k, ms) ->
            match Hashtbl.find_opt best k with
            | Some b when b <= ms -> ()
            | _ -> Hashtbl.replace best k ms)
          r.cell_ms)
      rounds;
    Hashtbl.fold (fun _ ms acc -> ms :: acc) best []
  end
  else begin
    let per_cell (r : round) = r.wall /. float_of_int (max 1 (cells r)) in
    let rec take n = function
      | (r : round) :: rest when n < min_cells ->
        List.map snd r.cell_ms @ take (n + cells r) rest
      | _ -> []
    in
    take 0 (List.sort (fun a b -> compare (per_cell a) (per_cell b)) rounds)
  end

(* Set-ups repeated, uncached, until [seconds] have passed. *)
let repeat_setup wl ~seconds =
  let t_end = now () +. seconds in
  let rec go acc =
    let acc = time_setup wl ~cache:false :: acc in
    if now () < t_end then go acc else acc
  in
  go []

(* setup_s is the median of the set-up that starts the run and of
   uncached repeats after every round. Spreading the repeats over the
   run, rather than running them back to back, keeps a short measurement
   from riding on one moment's machine speed. *)
let untraced wl ~seconds =
  let setups = ref [ time_setup wl ~cache:true ] in
  let t_end = now () +. seconds in
  let r0 = wl.run_round 0 in
  let timed = timed_cells ~cells_repeat:wl.cells_repeat in
  (* Later rounds are checked against round 0 as they finish and only
     their timings are kept. *)
  let rec loop r acc =
    setups := repeat_setup wl ~seconds:0.05 @ !setups;
    let last = List.hd acc in
    say "levbench: round %d: %d cells in %.3f s, set-up %.4f s" (r - 1) (cells last)
      last.wall (List.hd !setups);
    if now () >= t_end && List.length (timed acc) >= min_cells then acc
    else begin
      let round = wl.run_round r in
      let round = { round with failed = round.failed + drift r0 round; fps = [] } in
      loop (r + 1) (round :: acc)
    end
  in
  let rounds = loop 1 [ r0 ] in
  let attempted = List.fold_left (fun n r -> n + cells r) 0 rounds in
  let failed = List.fold_left (fun n (r : round) -> n + r.failed) 0 rounds in
  let ms = timed rounds in
  say "levbench: %d rounds, %d cells, %d timed" (List.length rounds) attempted
    (List.length ms);
  ( attempted,
    failed,
    [ ("setup_s", median !setups, "s");
      ( "cells_per_s",
        float_of_int (List.length ms) /. (List.fold_left ( +. ) 0.0 ms /. 1e3),
        "1/s" );
      ("cell_ms_p50", percentile 0.5 ms, "ms");
      ("cell_ms_p90", percentile_band 0.9 ms, "ms");
      ("sim_cycles_safestack_pct", wl.sim_cycles_pct P.Safe_stack, "%");
      ("sim_cycles_cps_pct", wl.sim_cycles_pct P.Cps, "%");
      ("sim_cycles_cpi_pct", wl.sim_cycles_pct P.Cpi, "%");
      ("sim_cycles_cpi_crypt_pct", wl.sim_cycles_pct P.Cpi_crypt, "%") ] )

(* ---------- traced run: the per-layer metrics ---------- *)

type pass = {
  round : round;           (* the untraced round it re-drives *)
  spans : Span.span list;
  k : counts;
  fps : (string * string) list;
  wall : float;            (* whole re-drive *)
  cells_s : float;         (* re-drive without the front-end prefix *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  pool_wall : float;
  invariants_failed : int;
}

(* Metric spelling of a protection. *)
let metric_prot p =
  match p with P.Hardened -> "hardened" | p -> P.protection_name p

let mw words = words /. 1e6
let mb bytes = bytes /. 1e6

let traced wl ~seconds ~jobs_check ~spans_out =
  ignore (time_setup wl ~cache:true);
  let t_end = now () +. seconds in
  let rec loop acc =
    let tr = Span.create () and k = new_counts () in
    let gc0 = Gc.quick_stat () in
    let t0 = now () in
    let fps, cells_s = wl.redrive tr k in
    let wall = now () -. t0 in
    let gc1 = Gc.quick_stat () in
    (* The user-path round comes second: once a pool has run other
       domains, the Gc counters of later passes vary from run to run, and
       the allocation and gc counts are taken from the first pass. *)
    let round = wl.run_round 0 in
    let pool_wall = wl.pool_wall () and invariants_failed = wl.invariants_failed () in
    say "levbench: pass %d: untraced %.3f s, traced %.3f s (cells %.3f s)"
      (List.length acc) round.wall wall cells_s;
    let p =
      { round; spans = Span.spans tr; k; fps; wall; cells_s; gc0; gc1; pool_wall;
        invariants_failed }
    in
    if now () < t_end then loop (p :: acc) else List.rev (p :: acc)
  in
  let passes = loop [] in
  let p0 = List.hd passes in
  (match spans_out with Some path -> Span.write_jsonl path p0.spans | None -> ());
  (* Fidelity: the re-drive computes what the user path computed, and
     every pass counts the same. *)
  let mismatched =
    List.fold_left
      (fun n p -> n + diff_fps "re-drive vs user path" p.round.fps p.fps)
      0 passes
  in
  let unstable =
    List.length (List.filter (fun p -> counts_key p.k <> counts_key p0.k) passes)
  in
  if unstable > 0 then say "levbench: traced passes counted differently";
  let jobs_bad = jobs_check () in
  let attempted =
    List.fold_left (fun n p -> n + (2 * cells p.round)) 0 passes
  in
  let failed =
    List.fold_left (fun n p -> n + p.round.failed) 0 passes
    + mismatched + unstable + jobs_bad
  in
  (* Per-layer self times: median over passes; counts from pass 0. *)
  let aggs = List.map (fun p -> (p, Span.aggregate p.spans)) passes in
  let by_name0, _ = snd (List.hd aggs) in
  let med f = median (List.map f aggs) in
  let layer_ms name =
    med (fun (_, (by_name, _)) ->
        match Hashtbl.find_opt by_name name with
        | Some a -> a.Span.self_s *. 1e3
        | None -> 0.0)
  in
  let prot_ms name p =
    med (fun (_, (_, by_prot)) ->
        match Hashtbl.find_opt by_prot (name, P.protection_name p) with
        | Some a -> a.Span.self_s *. 1e3
        | None -> 0.0)
  in
  let get name f =
    match Hashtbl.find_opt by_name0 name with Some a -> f a | None -> 0.0
  in
  let calls name = get name (fun a -> float_of_int a.Span.calls) in
  let alloc_mw name = get name (fun a -> mw a.Span.self_words) in
  let k = p0.k in
  let fi = float_of_int in
  let cls c = fi (Option.value ~default:0 (List.assoc_opt c k.classes)) in
  let interp_s = layer_ms "interp" /. 1e3 in
  let per_prot name =
    List.map
      (fun p -> (Printf.sprintf "%s.%s.ms" name (metric_prot p), prot_ms name p, "ms"))
      P.all_protections
  in
  let root_s p = Span.root_seconds p.spans in
  let metrics =
    [ ("minic.ms", layer_ms "minic", "ms");
      ("minic.calls", calls "minic", "count");
      ("minic.src_kb", fi k.src_bytes /. 1024.0, "KiB");
      ("minic.alloc_mw", alloc_mw "minic", "Mwords");
      ("pipeline.ms", layer_ms "pipeline", "ms");
      ("pipeline.calls", calls "pipeline", "count");
      ("pipeline.alloc_mw", alloc_mw "pipeline", "Mwords") ]
    @ per_prot "pipeline"
    @ [ ("pipeline.checks_elided", fi k.checks_elided, "count");
        ("pipeline.mem_ops_demoted", fi k.mem_ops_demoted, "count");
        ("pipeline.mem_ops_instrumented", fi k.mem_ops_instrumented, "count");
        ("pipeline.mem_ops_checked", fi k.mem_ops_checked, "count");
        ("loader.ms", layer_ms "loader", "ms");
        ("loader.calls", calls "loader", "count");
        ("loader.alloc_mw", alloc_mw "loader", "Mwords");
        ("interp.ms", layer_ms "interp", "ms");
        ("interp.calls", calls "interp", "count");
        ("interp.alloc_mw", alloc_mw "interp", "Mwords");
        ( "interp.alloc_words_per_instr",
          ratio (get "interp" (fun a -> a.Span.self_words)) (fi k.sim_instrs),
          "words" );
        ("interp.minstr_per_s", ratio (fi k.sim_instrs /. 1e6) interp_s, "M/s");
        ("interp.sim_instrs", fi k.sim_instrs, "count");
        ("interp.sim_cycles", fi k.sim_cycles, "count");
        ("interp.mem_ops", fi k.mem_ops, "count");
        ("interp.instrumented_mem_ops", fi k.instrumented_mem_ops, "count") ]
    @ per_prot "interp"
    @ [ ("safestore.accesses", fi k.store_accesses, "count");
        ("safestore.footprint_words", fi k.store_footprint, "words");
        ("faults.ms", layer_ms "faults", "ms");
        ("faultplan.resolve_ms", layer_ms "faultplan.resolve", "ms");
        ("faults.runs", List.fold_left (fun a (_, n) -> a +. fi n) 0.0 k.classes, "count");
        ("faults.hijacked", cls "hijacked", "count");
        ("faults.trapped", cls "trapped", "count");
        ("faults.crash", cls "crash", "count");
        ("faults.masked", cls "masked", "count");
        ("faults.benign", cls "benign", "count");
        ("faults.invariants_failed", fi p0.invariants_failed, "count");
        ("ripe.compile_ms", layer_ms "ripe.compile", "ms");
        ("ripe.run_instance_ms", layer_ms "ripe.run_instance", "ms");
        ("ripe.instances", fi k.ripe_instances, "count") ]
    @ List.map
        (fun p ->
          let pn = P.protection_name p in
          ( "ripe.hijacked." ^ pn,
            fi (Option.value ~default:0 (List.assoc_opt pn k.ripe_hijacked)),
            "count" ))
        [ P.Vanilla; P.Cfi; P.Cfi_type; P.Cps; P.Cpi; P.Cpi_crypt ]
    @ [ ("pool.jobs", fi wl.pool_jobs, "count");
        ( "pool.speedup",
          median
            (List.map
               (fun p ->
                 let untraced = if wl.pool_jobs > 1 then p.pool_wall else p.round.wall in
                 ratio (wl.pool_busy p.spans) untraced)
               passes),
          "x" );
        ( "gc.minor_collections",
          fi (p0.gc1.Gc.minor_collections - p0.gc0.Gc.minor_collections),
          "count" );
        ( "gc.major_collections",
          fi (p0.gc1.Gc.major_collections - p0.gc0.Gc.major_collections),
          "count" );
        ( "gc.promoted_mw",
          mw (p0.gc1.Gc.promoted_words -. p0.gc0.Gc.promoted_words),
          "Mwords" );
        ("gc.top_heap_mb", mb (fi p0.gc1.Gc.top_heap_words *. 8.0), "MB");
        ( "trace.overhead_pct",
          (ratio (median (List.map (fun p -> p.cells_s) passes))
             (median (List.map (fun p -> p.round.wall) passes))
          -. 1.0)
          *. 100.0,
          "%" );
        ( "trace.coverage_pct",
          median (List.map (fun p -> 100.0 *. ratio (root_s p) p.wall) passes),
          "%" ) ]
  in
  (* Where the traced self time went, for people reading the log. *)
  let total = Hashtbl.fold (fun _ a acc -> acc +. a.Span.self_s) by_name0 0.0 in
  Hashtbl.iter
    (fun name a ->
      say "levbench: %-18s %6d calls %10.1f ms self %5.1f%%" name a.Span.calls
        (a.Span.self_s *. 1e3)
        (100.0 *. ratio a.Span.self_s total))
    by_name0;
  say "levbench: %d traced passes" (List.length passes);
  (attempted, failed, metrics)

(* ---------- generator self-test ---------- *)

(* Every generated program compiles, verifies under every protection
   (Pipeline.build re-verifies the instrumented IR), runs to completion
   under vanilla, and behaves identically under every protection. *)
let self_test () =
  let bad = ref 0 and runs = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (w : W.Workload.t) ->
          let prog = W.Workload.compile w in
          let observe prot =
            incr runs;
            match
              let b = P.build prot prog in
              M.Interp.run ~fuel:w.W.Workload.fuel (M.Loader.load b.P.prog b.P.config)
            with
            | r ->
              Some
                ( M.Trap.outcome_to_string r.M.Interp.outcome, r.M.Interp.instrs,
                  r.M.Interp.checksum, r.M.Interp.output )
            | exception e ->
              say "self-test: %s under %s raised %s" w.W.Workload.name
                (P.protection_name prot) (Printexc.to_string e);
              None
          in
          let v = observe P.Vanilla in
          (match v with
           | Some ("exit(0)", _, _, _) -> ()
           | _ ->
             incr bad;
             say "self-test: %s does not exit 0 under vanilla" w.W.Workload.name);
          List.iter
            (fun prot ->
              if prot <> P.Vanilla && observe prot <> v then begin
                incr bad;
                say "self-test: %s diverges from vanilla under %s" w.W.Workload.name
                  (P.protection_name prot)
              end)
            P.all_protections)
        (generated ~seed))
    [ 1; 2; 3 ];
  say "self-test: %d builds and runs, %d failures" !runs !bad;
  exit (if !bad = 0 then 0 else 1)

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref false
  and spans = ref None in
  let rec parse = function
    | [] -> ()
    | "--self-test" :: _ -> self_test ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--spans" :: v :: rest -> spans := Some v; parse rest
    | arg :: _ ->
      say "levbench: unknown argument %s" arg;
      exit 2
  in
  (try parse (List.tl (Array.to_list Sys.argv))
   with Failure _ ->
     say "levbench: bad argument value";
     exit 2);
  let seed = !seed in
  let wl, jobs_check =
    match !workload with
    | "spec-interp" -> (engine_workload spec_interp, fun () -> 0)
    | "gen-build" -> (engine_workload (gen_build ~seed), fun () -> 0)
    | "attack-campaign" -> (attack_workload ~seed, fun () -> jobs_identity_failures ~seed)
    | w ->
      say "levbench: unknown workload '%s'" w;
      exit 2
  in
  let attempted, failed, metrics =
    if !trace then traced wl ~seconds:!seconds ~jobs_check ~spans_out:!spans
    else untraced wl ~seconds:!seconds
  in
  print_result ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
