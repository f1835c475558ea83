(* Resilient-server campaign driver (see serve.mli).

   Layer 1 (machine): calibrate per-class service cycles and probe the
   real interpreter under hijack/degradation fault plans.
   Layer 2 (simulation): a deterministic discrete-event simulation of the
   same server shape — open-loop arrivals, bounded queue, deadlines,
   retries with seeded backoff, per-shard circuit breakers, injected
   kills and stalls — scaled to ~10^6 requests per cell.

   Nothing here reads a clock or iterates a hash table whose order could
   vary: cells are integrated in pool-submission order and every metric
   is in simulated cycles, so the whole report is a pure function of the
   config. *)

module P = Levee_core.Pipeline
module M = Levee_machine
module A = Levee_attacks
module W = Levee_workloads
module Pool = Levee_support.Pool
module J = Levee_support.Jsonenc
module Rng = Levee_support.Rng
module Runstore = Levee_support.Runstore

let schema_id = "levee-serve/1"

type config = {
  workers : int;
  shards : int;
  requests : int;
  protections : P.protection list;
  seeds : int list;
  faulted : bool;
}

let default =
  (* The spectrum members ride along after the paper's own columns: the
     handler-overwrite probe is cross-signature (backdoor is int(), the
     handlers are int(int)), so cfi-type refuses it and cpi-crypt garbles
     it — both must stay un-hijacked even mid-degradation. *)
  { workers = 4; shards = 4; requests = 1_000_000;
    protections = [ P.Vanilla; P.Safe_stack; P.Cpi; P.Cfi_type; P.Cpi_crypt ];
    seeds = [ 0; 1 ]; faulted = true }

let smoke = { default with requests = 12_000 }

let validate c =
  W.Webstack.check_workers ~flag:"--workers" c.workers;
  if c.shards < 1 || c.shards > W.Webstack.max_shards then
    invalid_arg (Printf.sprintf "--shards must be in 1..%d" W.Webstack.max_shards);
  if c.requests < 1 then invalid_arg "--requests must be positive";
  if c.seeds = [] then invalid_arg "serve: need at least one seed"

type probe = {
  p_plan : string;
  p_class : string;
  p_outcome : string;
  p_cycles : int;
  p_checksum : int;
}

type cell = {
  c_protection : P.protection;
  c_seed : int;
  c_svc : int array;
  c_probes : probe list;
  c_arrivals : int;
  c_served : int;
  c_shed : int;
  c_timed_out : int;
  c_retried : int;
  c_killed : int;
  c_trips : int;
  c_p50 : int;
  c_p99 : int;
  c_p999 : int;
  c_max : int;
  c_hist : (int * int) list;
}

type report = { rep_config : config; rep_cells : cell list }

(* ---------- layer 1: calibration + probes on the real machine ---------- *)

let run_workload prot ?(faults = []) ?(sched_seed = 0) (w : W.Workload.t) =
  let prog = W.Workload.compile w in
  let _, deployed = Faults.images ~store:M.Safestore.Simple_array prot prog in
  M.Interp.run ~fuel:w.W.Workload.fuel ~faults ~sched_seed deployed

(* Marginal service cycles per request class: two single-threaded runs at
   different request counts cancel out startup cost. Single-threaded runs
   never consult the scheduler, so this is seed-independent. *)
let calib_r1 = 60
let calib_r2 = 180

let calibrate cfg prot =
  Array.init 3 (fun cls ->
      let run n =
        let w =
          W.Webstack.server ~threads:1 ~shards:cfg.shards ~cls ~requests:n
        in
        let r = run_workload prot w in
        (match r.M.Interp.outcome with
         | M.Trap.Exit 0 -> ()
         | o ->
           failwith
             (Printf.sprintf "serve: calibration run (%s, class %d) is %s"
                (P.protection_name prot) cls (M.Trap.outcome_to_string o)));
        r.M.Interp.cycles
      in
      max 1 ((run calib_r2 - run calib_r1) / (calib_r2 - calib_r1)))

(* The probe subject replays the full server (all classes, real threads)
   under fault plans. 300 requests keep it fast; the hijack write lands
   mid-drain (the drain spans roughly instructions 15k..160k). *)
let probe_requests = 300

let probe_plans cfg =
  let open A.Faultplan in
  let ev step action = { step; action } in
  let hijack =
    ev 50_000
      (Write { site = Global ("handlers", 0); value = Code_entry "backdoor" })
  in
  let degrade =
    (* Kill a worker, stall the machine, then fire the same hijack write:
       the integrity check must hold mid-degradation. tid 1 is the first
       spawned worker; with one worker main drains the queue itself and
       the kill is a no-op, leaving stall + hijack. *)
    [ ev 20_000 (Kill_worker { tid = 1 });
      ev 30_000 (Stall { cycles = 50_000 });
      ev 50_000
        (Write { site = Global ("handlers", 0); value = Code_entry "backdoor" })
    ]
  in
  [ make ~name:"hijack" [ hijack ];
    make ~name:"degrade" (if cfg.faulted then degrade else [ hijack ]) ]

let run_probes cfg prot seed =
  let w =
    W.Webstack.server ~threads:cfg.workers ~shards:cfg.shards ~cls:(-1)
      ~requests:probe_requests
  in
  let prog = W.Workload.compile w in
  let reference, deployed =
    Faults.images ~store:M.Safestore.Simple_array prot prog
  in
  let baseline = M.Interp.run ~fuel:w.W.Workload.fuel ~sched_seed:seed deployed in
  (match baseline.M.Interp.outcome with
   | M.Trap.Exit 0 -> ()
   | o ->
     failwith
       (Printf.sprintf "serve: probe baseline under %s (seed %d) is %s"
          (P.protection_name prot) seed (M.Trap.outcome_to_string o)));
  List.map
    (fun plan ->
      let faults = A.Faultplan.resolve ~reference ~deployed plan in
      let r =
        M.Interp.run ~fuel:w.W.Workload.fuel ~faults ~sched_seed:seed deployed
      in
      { p_plan = plan.A.Faultplan.name;
        p_class = Faults.classify ~baseline r;
        p_outcome = M.Trap.outcome_to_string r.M.Interp.outcome;
        p_cycles = r.M.Interp.cycles;
        p_checksum = r.M.Interp.checksum })
    (probe_plans cfg)

(* ---------- layer 2: the discrete-event simulation ---------- *)

(* Binary min-heap on (time, seq): seq is the push counter, so same-time
   events fire in push order — a total order independent of anything but
   the simulation itself. *)
module Heap = struct
  type 'a t = {
    mutable ts : int array;
    mutable seqs : int array;
    mutable evs : 'a array;
    mutable n : int;
    mutable seq : int;
    dummy : 'a;
  }

  let create dummy =
    { ts = Array.make 64 0; seqs = Array.make 64 0; evs = Array.make 64 dummy;
      n = 0; seq = 0; dummy }

  let lt h i j =
    h.ts.(i) < h.ts.(j) || (h.ts.(i) = h.ts.(j) && h.seqs.(i) < h.seqs.(j))

  let swap h i j =
    let t = h.ts.(i) in h.ts.(i) <- h.ts.(j); h.ts.(j) <- t;
    let s = h.seqs.(i) in h.seqs.(i) <- h.seqs.(j); h.seqs.(j) <- s;
    let e = h.evs.(i) in h.evs.(i) <- h.evs.(j); h.evs.(j) <- e

  let push h t ev =
    if h.n = Array.length h.ts then begin
      let grow a fill = Array.append a (Array.make h.n fill) in
      h.ts <- grow h.ts 0; h.seqs <- grow h.seqs 0; h.evs <- grow h.evs h.dummy
    end;
    h.ts.(h.n) <- t; h.seqs.(h.n) <- h.seq; h.evs.(h.n) <- ev;
    h.seq <- h.seq + 1;
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && lt h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let t = h.ts.(0) and ev = h.evs.(0) in
      h.n <- h.n - 1;
      if h.n > 0 then begin
        h.ts.(0) <- h.ts.(h.n); h.seqs.(0) <- h.seqs.(h.n);
        h.evs.(0) <- h.evs.(h.n)
      end;
      h.evs.(h.n) <- h.dummy;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.n && lt h l !m then m := l;
        if r < h.n && lt h r !m then m := r;
        if !m = !i then continue := false
        else begin
          swap h !i !m;
          i := !m
        end
      done;
      Some (t, ev)
    end
end

type req = {
  id : int;
  cls : int;
  shard : int;
  arrival : int;
  deadline : int;
  mutable attempt : int;
}

type ev = Idle | Arrive of int | Retry of req | Free of int | Kill of int

type shard_state = {
  mutable free_at : int;
  mutable streak : int;      (* consecutive failures/slow completions *)
  mutable open_until : int;  (* breaker open while now < open_until *)
}

type sim_out = {
  s_served : int;
  s_shed : int;
  s_timed_out : int;
  s_retried : int;
  s_killed : int;
  s_trips : int;
  s_lat : int array;  (* served-request latencies, completion order *)
}

(* Tunables, all relative to the calibrated mean service time so the same
   shape holds across protections. *)
let util_pct = 85             (* open-loop load target, percent of capacity *)
let queue_cap_per_worker = 8
let deadline_mult = 50
let max_attempts = 3
let stall_factor = 8          (* hot-shard service inflation in the window *)
let slow_mult = 4             (* breaker counts svc > slow_mult*mean as slow *)
let breaker_streak = 3
let cooldown_mult = 20
let recovery_mult = 8         (* shard-lock recovery after a worker dies *)
let lock_share = 4            (* 1/lock_share of service holds the shard lock *)

let simulate cfg ~svc ~seed =
  let workers = cfg.workers and shards = cfg.shards and n = cfg.requests in
  let mean_svc = max 1 ((svc.(0) + svc.(1) + svc.(2)) / 3) in
  let mean_ia = max 1 (mean_svc * 100 / (workers * util_pct)) in
  let deadline_c = deadline_mult * mean_svc in
  let qcap = queue_cap_per_worker * workers in
  let slow_at = slow_mult * mean_svc in
  let cooldown = cooldown_mult * mean_svc in
  let recovery = recovery_mult * mean_svc in
  (* Three decorrelated streams: arrivals, the fault schedule, and the
     in-simulation draws (backoff jitter). Draw order for the last one is
     the event-processing order, itself deterministic. *)
  let arr_rng = Rng.create ((seed * 0x9E3779B9) + 1) in
  let fault_rng = Rng.create ((seed * 0x9E3779B9) + 2) in
  let sim_rng = Rng.create ((seed * 0x9E3779B9) + 3) in
  let arr_time = Array.make n 0 in
  let arr_shard = Array.make n 0 in
  let t = ref 0 in
  for i = 0 to n - 1 do
    (* Uniform integer inter-arrivals on [1, 2*mean-1]: open-loop with
       mean [mean_ia], no libm in sight. *)
    t := !t + Rng.range arr_rng 1 ((2 * mean_ia) - 1);
    arr_time.(i) <- !t;
    arr_shard.(i) <- Rng.int arr_rng shards
  done;
  let horizon = !t in
  (* Fault schedule: kill up to two workers at T/3 and T/2 (always leaving
     one alive), and pick a hot shard whose service inflates by
     [stall_factor] during the middle third of the arrival horizon. *)
  let kills =
    if not cfg.faulted then []
    else
      List.filteri (fun i _ -> i < min 2 (workers - 1))
        [ (0, horizon / 3); (1, horizon / 2) ]
  in
  let hot_shard = Rng.int fault_rng shards in
  let stall_lo = horizon / 3 and stall_hi = 2 * horizon / 3 in
  let stalling = cfg.faulted in
  let kill_time = Array.make workers max_int in
  let alive = Array.make workers true in
  let free = Array.make workers true in
  let sh =
    Array.init shards (fun _ -> { free_at = 0; streak = 0; open_until = 0 })
  in
  let q : req Queue.t = Queue.create () in
  let heap = Heap.create Idle in
  let served = ref 0 and shed = ref 0 and timed_out = ref 0 in
  let retried = ref 0 and killed = ref 0 and trips = ref 0 in
  let lat = Array.make n 0 in
  let nlat = ref 0 in
  List.iter
    (fun (w, kt) ->
      kill_time.(w) <- kt;
      Heap.push heap kt (Kill w))
    kills;
  if n > 0 then Heap.push heap arr_time.(0) (Arrive 0);
  let pick_worker () =
    let found = ref (-1) in
    for w = workers - 1 downto 0 do
      if alive.(w) && free.(w) then found := w
    done;
    !found
  in
  let shard_fail s at =
    s.streak <- s.streak + 1;
    if s.streak >= breaker_streak && at >= s.open_until then begin
      s.open_until <- at + cooldown;
      s.streak <- 0;
      incr trips
    end
  in
  let retry_path r now =
    if now > r.deadline then incr timed_out
    else if r.attempt >= max_attempts then incr shed
    else begin
      r.attempt <- r.attempt + 1;
      incr retried;
      let backoff =
        (mean_svc lsl (r.attempt - 2)) + Rng.int sim_rng ((mean_svc / 2) + 1)
      in
      Heap.push heap (now + backoff) (Retry r)
    end
  in
  let dispatch r w now =
    free.(w) <- false;
    let s = sh.(r.shard) in
    let hot =
      stalling && r.shard = hot_shard && now >= stall_lo && now < stall_hi
    in
    let service = svc.(r.cls) * if hot then stall_factor else 1 in
    let start = max now s.free_at in
    let fin = start + service in
    if kill_time.(w) < fin then begin
      (* The worker dies mid-request: the shard lock it may hold needs
         recovery, the request re-enters via the retry path, and the
         worker never frees ([Kill w] does the bookkeeping). *)
      let ft = max start kill_time.(w) in
      alive.(w) <- false;
      s.free_at <- ft + recovery;
      shard_fail s ft;
      retry_path r ft
    end
    else begin
      s.free_at <- start + max 1 (service / lock_share);
      if service > slow_at then shard_fail s fin else s.streak <- 0;
      Heap.push heap fin (Free w);
      if fin > r.deadline then incr timed_out
      else begin
        incr served;
        lat.(!nlat) <- fin - r.arrival;
        incr nlat
      end
    end
  in
  let rec try_dispatch now =
    if not (Queue.is_empty q) then begin
      let w = pick_worker () in
      if w >= 0 then begin
        let r = Queue.pop q in
        if now > r.deadline then begin
          incr timed_out;
          try_dispatch now
        end
        else if now < sh.(r.shard).open_until then begin
          (* Breaker open: fast-fail without burning a worker. *)
          retry_path r now;
          try_dispatch now
        end
        else begin
          dispatch r w now;
          try_dispatch now
        end
      end
    end
  in
  let admit r now =
    if Queue.length q >= qcap then incr shed
    else begin
      Queue.push r q;
      try_dispatch now
    end
  in
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (now, ev) ->
      (match ev with
       | Idle -> ()
       | Arrive i ->
         if i + 1 < n then Heap.push heap arr_time.(i + 1) (Arrive (i + 1));
         let r =
           { id = i; cls = i mod 3; shard = arr_shard.(i);
             arrival = now; deadline = now + deadline_c; attempt = 1 }
         in
         admit r now
       | Retry r -> admit r now
       | Free w ->
         free.(w) <- true;
         try_dispatch now
       | Kill w ->
         if alive.(w) then begin
           alive.(w) <- false;
           free.(w) <- false
         end;
         incr killed);
      drain ()
  in
  drain ();
  (* All workers can be dead or wedged behind a recovered lock only up to
     a finite horizon; anything still queued when the event list is empty
     will never be served — its deadline passes in silence. *)
  Queue.iter (fun _ -> incr timed_out) q;
  Queue.clear q;
  { s_served = !served; s_shed = !shed; s_timed_out = !timed_out;
    s_retried = !retried; s_killed = !killed; s_trips = !trips;
    s_lat = Array.sub lat 0 !nlat }

(* ---------- percentiles + histogram ---------- *)

let nearest_rank sorted pct_num pct_den =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = ((n * pct_num) + (pct_den - 1)) / pct_den in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let log2_floor v =
  let v = max 1 v in
  let k = ref 0 in
  let x = ref v in
  while !x > 1 do
    x := !x lsr 1;
    incr k
  done;
  !k

let histogram lat =
  let buckets = Array.make 63 0 in
  Array.iter (fun l -> let k = log2_floor l in buckets.(k) <- buckets.(k) + 1) lat;
  let out = ref [] in
  for k = 62 downto 0 do
    if buckets.(k) > 0 then out := (1 lsl k, buckets.(k)) :: !out
  done;
  !out

(* ---------- the campaign ---------- *)

let exec_cell cfg (prot, seed) =
  let svc = calibrate cfg prot in
  let probes = run_probes cfg prot seed in
  let s = simulate cfg ~svc ~seed in
  let sorted = Array.copy s.s_lat in
  Array.sort (fun (a : int) b -> compare a b) sorted;
  let nl = Array.length sorted in
  { c_protection = prot;
    c_seed = seed;
    c_svc = svc;
    c_probes = probes;
    c_arrivals = cfg.requests;
    c_served = s.s_served;
    c_shed = s.s_shed;
    c_timed_out = s.s_timed_out;
    c_retried = s.s_retried;
    c_killed = s.s_killed;
    c_trips = s.s_trips;
    c_p50 = nearest_rank sorted 50 100;
    c_p99 = nearest_rank sorted 99 100;
    c_p999 = nearest_rank sorted 999 1000;
    c_max = (if nl = 0 then 0 else sorted.(nl - 1));
    c_hist = histogram s.s_lat }

let run ?(jobs = 1) cfg =
  validate cfg;
  let cells =
    List.concat_map
      (fun prot -> List.map (fun seed -> (prot, seed)) cfg.seeds)
      cfg.protections
  in
  { rep_config = cfg; rep_cells = Pool.sweep ~jobs (exec_cell cfg) cells }

(* ---------- invariants ---------- *)

let accounted c = c.c_served + c.c_shed + c.c_timed_out = c.c_arrivals

let degraded c = c.c_shed + c.c_retried + c.c_timed_out > 0

let invariants rep =
  let cs = rep.rep_cells in
  let probes_of prot =
    List.concat_map
      (fun c -> if c.c_protection = prot then c.c_probes else [])
      cs
  in
  [ ( "cpi never hijacked (incl. mid-degradation)",
      List.for_all (fun p -> p.p_class <> "hijacked") (probes_of P.Cpi) );
    ( "spectrum backends never hijacked (cfi-type, cpi-crypt)",
      List.for_all
        (fun p -> p.p_class <> "hijacked")
        (probes_of P.Cfi_type @ probes_of P.Cpi_crypt) );
    ( "every admitted request terminally accounted",
      List.for_all accounted cs );
    ( "vanilla hijack witnessed",
      List.exists (fun p -> p.p_class = "hijacked") (probes_of P.Vanilla) );
    ( "degraded cells still serve",
      (not rep.rep_config.faulted)
      || (List.for_all (fun c -> c.c_served > 0) cs
          && List.exists degraded cs) );
  ]

let invariants_ok rep = List.for_all snd (invariants rep)

(* ---------- reporting ---------- *)

let to_json rep =
  let c = rep.rep_config in
  let str s = J.Jstr s and int i = J.Jint i in
  let probe_json p =
    J.Jobj
      [ ("plan", str p.p_plan);
        ("class", str p.p_class);
        ("outcome", str p.p_outcome);
        ("cycles", int p.p_cycles);
        ("checksum", int p.p_checksum) ]
  in
  let cell_json cl =
    J.Jobj
      [ ("protection", str (P.protection_name cl.c_protection));
        ("seed", int cl.c_seed);
        ("svc_cycles", J.Jlist (Array.to_list (Array.map int cl.c_svc)));
        ("probes", J.Jlist (List.map probe_json cl.c_probes));
        ("arrivals", int cl.c_arrivals);
        ("served", int cl.c_served);
        ("shed", int cl.c_shed);
        ("timed_out", int cl.c_timed_out);
        ("retried", int cl.c_retried);
        ("killed_workers", int cl.c_killed);
        ("breaker_trips", int cl.c_trips);
        ("p50_cycles", int cl.c_p50);
        ("p99_cycles", int cl.c_p99);
        ("p999_cycles", int cl.c_p999);
        ("max_cycles", int cl.c_max);
        ( "histogram",
          J.Jlist
            (List.map (fun (lo, n) -> J.Jlist [ int lo; int n ]) cl.c_hist) ) ]
  in
  let inv_json =
    List.map2
      (fun key (_, ok) -> (key, J.Jbool ok))
      [ "cpi_never_hijacked"; "spectrum_never_hijacked"; "all_accounted";
        "vanilla_hijack_witnessed"; "degraded_cells_still_serve" ]
      (invariants rep)
  in
  J.to_document
    (J.Jobj
       [ ("schema", str schema_id);
         ("workers", int c.workers);
         ("shards", int c.shards);
         ("requests", int c.requests);
         ("faulted", J.Jbool c.faulted);
         ("cells", J.Jlist (List.map cell_json rep.rep_cells));
         ("invariants", J.Jobj inv_json);
         ("invariants_ok", J.Jbool (invariants_ok rep)) ])

let to_records ?commit rep =
  let c = rep.rep_config in
  List.map
    (fun cl ->
      let config =
        Printf.sprintf "serve-%s-w%d-sh%d-r%d%s"
          (P.protection_name cl.c_protection)
          c.workers c.shards c.requests
          (if c.faulted then "" else "-nofault")
      in
      Runstore.make ~schema:schema_id ~kind:"serve" ?commit ~config
        ~seed:cl.c_seed ~wall_us:0
        [ ("arrivals", Runstore.Int cl.c_arrivals);
          ("served", Runstore.Int cl.c_served);
          ("shed", Runstore.Int cl.c_shed);
          ("timed_out", Runstore.Int cl.c_timed_out);
          ("retried", Runstore.Int cl.c_retried);
          ("killed_workers", Runstore.Int cl.c_killed);
          ("breaker_trips", Runstore.Int cl.c_trips);
          ("p50_cycles", Runstore.Int cl.c_p50);
          ("p99_cycles", Runstore.Int cl.c_p99);
          ("p999_cycles", Runstore.Int cl.c_p999);
          ("invariants_ok", Runstore.Int (if invariants_ok rep then 1 else 0))
        ])
    rep.rep_cells

let to_human rep =
  let b = Buffer.create 2048 in
  let c = rep.rep_config in
  Buffer.add_string b
    (Printf.sprintf
       "serve campaign: %d worker(s), %d shard(s), %d requests/cell, faults %s\n"
       c.workers c.shards c.requests (if c.faulted then "on" else "off"));
  Buffer.add_string b
    (Printf.sprintf "  %-10s %4s %9s %7s %9s %7s %6s %6s %8s %8s %8s\n"
       "protection" "seed" "served" "shed" "timed-out" "retried" "killed"
       "trips" "p50" "p99" "p999");
  List.iter
    (fun cl ->
      Buffer.add_string b
        (Printf.sprintf "  %-10s %4d %9d %7d %9d %7d %6d %6d %8d %8d %8d\n"
           (P.protection_name cl.c_protection)
           cl.c_seed cl.c_served cl.c_shed cl.c_timed_out cl.c_retried
           cl.c_killed cl.c_trips cl.c_p50 cl.c_p99 cl.c_p999))
    rep.rep_cells;
  List.iter
    (fun cl ->
      List.iter
        (fun p ->
          Buffer.add_string b
            (Printf.sprintf "  probe: %-10s seed %d %-8s -> %-9s (%s)\n"
               (P.protection_name cl.c_protection)
               cl.c_seed p.p_plan p.p_class p.p_outcome))
        cl.c_probes)
    rep.rep_cells;
  List.iter
    (fun (name, ok) ->
      Buffer.add_string b
        (Printf.sprintf "  invariant: %-46s %s\n" name
           (if ok then "OK" else "VIOLATED")))
    (invariants rep);
  Buffer.contents b
