(* Structured run journal: a thread-safe accumulator of per-cell records,
   printed and parsed through Jsonenc. *)

module J = Jsonenc

type entry = {
  workload : string;
  protection : string;
  store : string;
  outcome : string;
  status : int;
  cycles : int;
  instrs : int;
  mem_ops : int;
  instrumented_mem_ops : int;
  store_accesses : int;
  store_footprint : int;
  heap_peak : int;
  checksum : int;
  checks_elided : int;
  mem_ops_demoted : int;
  threads : int;
  ctx_switches : int;
  races : int;
  wall_us : int;
}

type t = {
  target_name : string;
  jobs_used : int;
  m : Mutex.t;
  mutable rev_entries : entry list;
}

let schema_id = "levee-bench-journal/5"

let create ?(jobs = 1) ~target () =
  { target_name = target; jobs_used = jobs; m = Mutex.create ();
    rev_entries = [] }

let target t = t.target_name
let jobs t = t.jobs_used

let record t e =
  Mutex.lock t.m;
  t.rev_entries <- e :: t.rev_entries;
  Mutex.unlock t.m

let entries t =
  Mutex.lock t.m;
  let es = List.rev t.rev_entries in
  Mutex.unlock t.m;
  es

let failures t = List.filter (fun e -> e.status <> 0) (entries t)

(* ---------- emitter ---------- *)

let entry_json e =
  let str s = J.Jstr s and int i = J.Jint i in
  J.Jobj
    [ ("workload", str e.workload); ("protection", str e.protection);
      ("store", str e.store); ("outcome", str e.outcome);
      ("status", int e.status); ("cycles", int e.cycles);
      ("instrs", int e.instrs); ("mem_ops", int e.mem_ops);
      ("instrumented_mem_ops", int e.instrumented_mem_ops);
      ("store_accesses", int e.store_accesses);
      ("store_footprint", int e.store_footprint);
      ("heap_peak", int e.heap_peak); ("checksum", int e.checksum);
      ("checks_elided", int e.checks_elided);
      ("mem_ops_demoted", int e.mem_ops_demoted); ("threads", int e.threads);
      ("ctx_switches", int e.ctx_switches); ("races", int e.races);
      ("wall_us", int e.wall_us) ]

let to_json t =
  J.to_document
    (J.Jobj
       [ ("schema", J.Jstr schema_id); ("target", J.Jstr t.target_name);
         ("jobs", J.Jint t.jobs_used);
         ("entries", J.Jlist (List.map entry_json (entries t))) ])

(* ---------- parser ---------- *)

let entry_of_json j =
  let str k = J.as_str (J.field k j) and int k = J.as_int (J.field k j) in
  { workload = str "workload"; protection = str "protection";
    store = str "store"; outcome = str "outcome"; status = int "status";
    cycles = int "cycles"; instrs = int "instrs"; mem_ops = int "mem_ops";
    instrumented_mem_ops = int "instrumented_mem_ops";
    store_accesses = int "store_accesses";
    store_footprint = int "store_footprint"; heap_peak = int "heap_peak";
    checksum = int "checksum"; checks_elided = int "checks_elided";
    mem_ops_demoted = int "mem_ops_demoted"; threads = int "threads";
    ctx_switches = int "ctx_switches"; races = int "races";
    wall_us = int "wall_us" }

let of_json s =
  try
    let j = J.parse s in
    let schema = J.as_str (J.field "schema" j) in
    if schema <> schema_id then raise (J.Bad ("unknown schema " ^ schema));
    let t =
      create ~jobs:(J.as_int (J.field "jobs" j))
        ~target:(J.as_str (J.field "target" j)) ()
    in
    List.iter
      (fun e -> record t (entry_of_json e))
      (J.as_list (J.field "entries" j));
    t
  with
  | J.Bad msg -> failwith ("Journal.of_json: " ^ msg)
  | Failure msg -> failwith ("Journal.of_json: " ^ msg)

(* ---------- comparison / reporting ---------- *)

let equal ?(ignore_wall = true) a b =
  let strip e = if ignore_wall then { e with wall_us = 0 } else e in
  a.target_name = b.target_name
  && List.map strip (entries a) = List.map strip (entries b)

let summary_line t =
  let es = entries t in
  let failed = List.length (List.filter (fun e -> e.status <> 0) es) in
  let cycles = List.fold_left (fun acc e -> acc + e.cycles) 0 es in
  let wall = List.fold_left (fun acc e -> acc + e.wall_us) 0 es in
  Printf.sprintf
    "[journal] %s: %d runs (%d failed), %d model cycles, %.1f ms wall, jobs=%d"
    t.target_name (List.length es) failed cycles
    (float_of_int wall /. 1000.) t.jobs_used

let write t =
  let path = "BENCH_" ^ t.target_name ^ ".json" in
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc;
  path

(* ---------- run-store projection ---------- *)

(* One aggregate record per journal: the trajectory tracks whole-target
   totals, the per-cell detail stays in BENCH_<target>.json. Metric
   order is fixed, so the record's bytes are deterministic. *)
let to_record ?(kind = "bench") ?commit ?(seed = 0) t =
  let es = entries t in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 es in
  Runstore.make ~schema:schema_id ~kind ?commit ~config:t.target_name ~seed
    ~wall_us:(sum (fun e -> e.wall_us))
    [ ("cells", Runstore.Int (List.length es));
      ("failures", Runstore.Int (List.length (failures t)));
      ("cycles", Runstore.Int (sum (fun e -> e.cycles)));
      ("instrs", Runstore.Int (sum (fun e -> e.instrs)));
      ("mem_ops", Runstore.Int (sum (fun e -> e.mem_ops)));
      ("instrumented_mem_ops", Runstore.Int (sum (fun e -> e.instrumented_mem_ops)));
      ("store_accesses", Runstore.Int (sum (fun e -> e.store_accesses)));
      ("checks_elided", Runstore.Int (sum (fun e -> e.checks_elided)));
      ("mem_ops_demoted", Runstore.Int (sum (fun e -> e.mem_ops_demoted)));
      ("ctx_switches", Runstore.Int (sum (fun e -> e.ctx_switches)));
      ("races", Runstore.Int (sum (fun e -> e.races)));
      ("checksum", Runstore.Int (sum (fun e -> e.checksum))) ]
