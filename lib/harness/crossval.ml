(* Static-vs-dynamic cross-validation (see crossval.mli).

   Parallel structure mirrors Faults: each (subject, protection) pair is
   one pool task that builds the image once and sweeps every scheduler
   seed; the submitting domain integrates results in submission order,
   so the report is independent of [jobs]. The static side runs once per
   subject on the submitting domain — it is cheap and seed-blind. *)

module P = Levee_core.Pipeline
module M = Levee_machine
module An = Levee_analysis
module Pool = Levee_support.Pool
module J = Levee_support.Jsonenc
module Runstore = Levee_support.Runstore

let schema_id = "levee-crossval/1"

type subject = {
  xname : string;
  source : string;
  fuel : int;
  x_racy : bool;
}

(* ---------- the corpus ---------- *)

(* These sources are mirrored verbatim in examples/minic/ (racy_counter.c,
   dcl.c, guarded_web.c, conc.c) so `levee analyze --races` on the
   examples and the crossval verdicts stay the same programs. *)

let racy_counter_src = {|
// Two spawned workers bump a shared counter with no lock: the canonical
// unguarded data race. Both detectors must flag `counter`; the run still
// exits 0 under every seed (the lost updates only skew the final count,
// not control flow).
int counter;

int worker(int n) {
  int i;
  i = 0;
  while (i < n) {
    counter = counter + 1;
    i = i + 1;
  }
  return n;
}

int main() {
  int t1;
  int t2;
  int r;
  t1 = thread_spawn(worker, 200);
  t2 = thread_spawn(worker, 200);
  r = thread_join(t1) + thread_join(t2);
  print_int(r);
  return 0;
}
|}

let dcl_src = {|
// Double-checked locking: the classic broken idiom. The unlocked fast
// path reads `ready` (and then calls through `handler`) with an empty
// lockset while the initialising thread writes both under the mutex, so
// the static analyzer must report both globals -- `handler` as
// safe-region storage, since it is a function pointer and lives in the
// safe region under CPI. On this sequentially-consistent machine the
// idiom still works (every run exits 0), which is exactly why the race
// needs a detector rather than a crash to be seen.
int lk;
int ready;
int (*handler)(int);

int dbl(int x) { return x * 2; }

int user(int wid) {
  if (ready == 0) {
    mutex_lock(&lk);
    if (ready == 0) {
      handler = dbl;
      ready = 1;
    }
    mutex_unlock(&lk);
  }
  return handler(wid);
}

int main() {
  int t1;
  int t2;
  int r;
  t1 = thread_spawn(user, 3);
  t2 = thread_spawn(user, 4);
  r = thread_join(t1) + thread_join(t2);
  print_int(r);
  return 0;
}
|}

let guarded_web_src = {|
// A properly guarded web-stack fragment: two workers drain a shared
// request queue and dispatch through a shared routing table, with every
// shared access under one mutex; main fills the queue before spawning
// and reads the stats after joining. Both detectors must stay silent:
// the may-live window keeps main's unlocked setup and teardown out of
// the race set, and the workers' common lock covers the rest.
int queue[16];
int qhead;
int qtail;
int served;
int total;
int lk;
int (*route[2])(int);

int route_a(int x) { return x + 1; }
int route_b(int x) { return x * 2; }

int worker(int wid) {
  int done;
  int req;
  int r;
  done = 0;
  while (done == 0) {
    req = 0 - 1;
    mutex_lock(&lk);
    if (qhead < qtail) {
      req = queue[qhead];
      qhead = qhead + 1;
    }
    mutex_unlock(&lk);
    if (req < 0) {
      done = 1;
    } else {
      mutex_lock(&lk);
      r = route[req % 2](req);
      served = served + 1;
      total = total + r;
      mutex_unlock(&lk);
    }
  }
  return wid;
}

int main() {
  int i;
  int t1;
  int t2;
  route[0] = route_a;
  route[1] = route_b;
  i = 0;
  while (i < 16) {
    queue[i] = i * 3;
    i = i + 1;
  }
  qtail = 16;
  t1 = thread_spawn(worker, 1);
  t2 = thread_spawn(worker, 2);
  i = thread_join(t1) + thread_join(t2);
  print_int(served);
  print_int(total);
  return 0;
}
|}

(* examples/minic/conc.c: a single-spawn handler registry. Statically
   race-free under the spawn-class rule (one non-multi class; main's
   unlocked install happens after the join, at may-live zero), and the
   dynamic detector agrees under every seed. *)
let registry_src = {|
int lk;
int inc(int x) { return x + 1; }
int dbl(int x) { return x * 2; }
int (*handlers[4])(int);

int install(int i) {
  handlers[i] = inc;
  return i;
}

int worker(int wid) {
  int j;
  handlers[wid] = dbl;
  mutex_lock(&lk);
  handlers[wid + 1] = inc;
  mutex_unlock(&lk);
  j = install(wid);
  return handlers[j](j);
}

int main() {
  int t;
  int r;
  t = thread_spawn(worker, 1);
  r = thread_join(t);
  handlers[0] = inc;
  print_int(r);
  return 0;
}
|}

let corpus =
  [ { xname = "racy_counter"; source = racy_counter_src; fuel = 200_000;
      x_racy = true };
    { xname = "dcl"; source = dcl_src; fuel = 50_000; x_racy = true };
    { xname = "guarded_web"; source = guarded_web_src; fuel = 200_000;
      x_racy = false };
    { xname = "registry"; source = registry_src; fuel = 50_000;
      x_racy = false } ]

(* ---------- dynamic cells ---------- *)

type cell = {
  c_subject : string;
  c_prot : P.protection;
  c_seed : int;
  c_outcome : string;
  c_races : string list;
  c_uncovered : string list;
}

type verdict = {
  v_subject : string;
  v_racy : bool;
  v_static : string list;
  v_races : An.Racecheck.race list;
  v_cells : cell list;
}

type report = {
  rep_seeds : int list;
  rep_verdicts : verdict list;
}

let verdicts rep = rep.rep_verdicts

let prefixed pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

(* A static key covers a dynamic key exactly for globals; heap and stack
   reports are covered by any allocation-site key of the right family
   (one faulted address cannot single out a site); "<unknown>" covers
   everything (the static side already gave up on modelling it). *)
let covers statics dyn =
  List.exists
    (fun s ->
      s = "<unknown>" || s = dyn
      || (dyn = "heap" && prefixed "malloc:" s)
      || (dyn = "stack" && prefixed "alloca:" s)
      || ((dyn = "safe" || dyn = "unknown") && s = "<unknown>"))
    statics

(* One pool task: every seed for one (subject+its static keys, protection). *)
let exec_cell ((s, statics), prot) =
  let prog = Levee_minic.Lower.compile ~name:s.xname s.source in
  let b = P.build prot prog in
  let image = M.Loader.load b.P.prog b.P.config in
  fun seeds ->
    List.map
      (fun sched_seed ->
        let r = M.Interp.run ~fuel:s.fuel ~sched_seed image in
        (match r.M.Interp.outcome with
         | M.Trap.Exit 0 -> ()
         | o ->
           failwith
             (Printf.sprintf "crossval: %s under %s (sched-seed %d) is %s"
                s.xname (P.protection_name prot) sched_seed
                (M.Trap.outcome_to_string o)));
        let keys = M.Raceproj.keys image r.M.Interp.race_details in
        { c_subject = s.xname;
          c_prot = prot;
          c_seed = sched_seed;
          c_outcome = M.Trap.outcome_to_string r.M.Interp.outcome;
          c_races = keys;
          c_uncovered = List.filter (fun k -> not (covers statics k)) keys })
      seeds

let default_seeds = [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let static_verdict s =
  let prog = Levee_minic.Lower.compile ~name:s.xname s.source in
  let races = An.Racecheck.races prog in
  let keys =
    List.sort_uniq compare (List.map (fun r -> r.An.Racecheck.rc_obj) races)
  in
  (keys, races)

let run ?(jobs = 1) ?(protections = [ P.Vanilla; P.Cpi ]) ?(seeds = default_seeds)
    subjects =
  let statics = List.map (fun s -> (s, static_verdict s)) subjects in
  let cells =
    List.concat_map
      (fun (s, (keys, _)) -> List.map (fun p -> ((s, keys), p)) protections)
      statics
  in
  let flat =
    List.concat (Pool.sweep ~jobs (fun c -> exec_cell c seeds) cells)
  in
  let verdicts =
    List.map
      (fun (s, (keys, races)) ->
        { v_subject = s.xname;
          v_racy = s.x_racy;
          v_static = keys;
          v_races = races;
          v_cells = List.filter (fun c -> c.c_subject = s.xname) flat })
      statics
  in
  { rep_seeds = seeds; rep_verdicts = verdicts }

(* ---------- the faults link ---------- *)

type faults_cross = {
  fc_subject : string;
  fc_plain : int;
  fc_certified : int;
  fc_unproven : int;
  fc_replay_ok : bool;
  fc_cpi_hijacked : bool;
}

let faults_cross ?jobs ?seed () =
  let campaign = Faults.smoke ?seed () in
  let rep = Faults.run ?jobs campaign in
  let runs = Faults.runs rep in
  List.map
    (fun (s : Faults.subject) ->
      let prog = Levee_minic.Lower.compile ~name:s.Faults.sname s.Faults.source in
      let b = P.build P.Cpi prog in
      let sep = An.Racecheck.separation b.P.prog in
      { fc_subject = s.Faults.sname;
        fc_plain = sep.An.Racecheck.sp_plain;
        fc_certified = List.length sep.An.Racecheck.sp_certs;
        fc_unproven = List.length sep.An.Racecheck.sp_unproven;
        fc_replay_ok = Result.is_ok sep.An.Racecheck.sp_replay;
        fc_cpi_hijacked =
          List.exists
            (fun (r : Faults.run) ->
              r.Faults.r_subject = s.Faults.sname
              && r.Faults.r_protection = P.Cpi
              && r.Faults.r_model
              && r.Faults.r_class = "hijacked")
            runs })
    campaign.Faults.subjects

(* Full certification must imply no attacker-model hijack under CPI: the
   static proof and the dynamic campaign measure the same isolation. *)
let faults_consistent fcs =
  List.for_all
    (fun fc ->
      (not (fc.fc_unproven = 0 && fc.fc_replay_ok)) || not fc.fc_cpi_hijacked)
    fcs

(* ---------- invariants ---------- *)

let all_cells rep = List.concat_map (fun v -> v.v_cells) rep.rep_verdicts

let exit0 = M.Trap.outcome_to_string (M.Trap.Exit 0)

let invariants rep =
  let cells = all_cells rep in
  [ ( "every dynamic race is statically covered",
      List.for_all (fun c -> c.c_uncovered = []) cells );
    ( "static verdict matches the corpus expectation",
      List.for_all
        (fun v -> v.v_racy = (v.v_static <> []))
        rep.rep_verdicts );
    ( "every racy subject is dynamically witnessed",
      List.for_all
        (fun v ->
          (not v.v_racy) || List.exists (fun c -> c.c_races <> []) v.v_cells)
        rep.rep_verdicts );
    ( "race-free subjects stay dynamically silent",
      List.for_all
        (fun v -> v.v_racy || List.for_all (fun c -> c.c_races = []) v.v_cells)
        rep.rep_verdicts );
    ( "all runs exit 0",
      List.for_all (fun c -> c.c_outcome = exit0) cells ) ]

let invariants_ok rep = List.for_all snd (invariants rep)

(* ---------- reports ---------- *)

let strs l = J.Jlist (List.map (fun s -> J.Jstr s) l)

let cell_json c =
  J.Jobj
    [ ("protection", J.Jstr (P.protection_name c.c_prot));
      ("seed", J.Jint c.c_seed);
      ("outcome", J.Jstr c.c_outcome);
      ("races", strs c.c_races);
      ("uncovered", strs c.c_uncovered) ]

let verdict_json v =
  J.Jobj
    [ ("subject", J.Jstr v.v_subject);
      ("racy_expected", J.Jbool v.v_racy);
      ("static", strs v.v_static);
      ("cells", J.Jlist (List.map cell_json v.v_cells)) ]

let faults_json fc =
  J.Jobj
    [ ("subject", J.Jstr fc.fc_subject);
      ("plain_stores", J.Jint fc.fc_plain);
      ("certified", J.Jint fc.fc_certified);
      ("unproven", J.Jint fc.fc_unproven);
      ("replay_ok", J.Jbool fc.fc_replay_ok);
      ("cpi_hijacked", J.Jbool fc.fc_cpi_hijacked) ]

let to_json ?faults rep =
  let inv = List.map (fun (n, ok) -> (n, J.Jbool ok)) (invariants rep) in
  let inv, cross =
    match faults with
    | None -> (inv, [])
    | Some fcs ->
      ( inv
        @ [ ( "certified implies no cpi hijack",
              J.Jbool (faults_consistent fcs) ) ],
        [ ("faults_cross", J.Jlist (List.map faults_json fcs)) ] )
  in
  J.to_document
    (J.Jobj
       ([ ("schema", J.Jstr schema_id);
          ("seeds", J.Jlist (List.map (fun s -> J.Jint s) rep.rep_seeds));
          ("verdicts", J.Jlist (List.map verdict_json rep.rep_verdicts)) ]
       @ cross
       @ [ ("invariants", J.Jobj inv) ]))

let to_human ?faults rep =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "crossval: %d subject(s), seeds %s\n"
       (List.length rep.rep_verdicts)
       (String.concat "," (List.map string_of_int rep.rep_seeds)));
  List.iter
    (fun v ->
      let witnessed =
        List.length (List.filter (fun c -> c.c_races <> []) v.v_cells)
      in
      Buffer.add_string b
        (Printf.sprintf "  %-14s static: %-28s dynamic: %d/%d cells racy\n"
           v.v_subject
           (if v.v_static = [] then "race-free"
            else String.concat "," v.v_static)
           witnessed (List.length v.v_cells)))
    rep.rep_verdicts;
  (match faults with
   | None -> ()
   | Some fcs ->
     List.iter
       (fun fc ->
         Buffer.add_string b
           (Printf.sprintf
              "  faults %-10s %d plain store(s): %d certified, %d unproven, \
               replay %s, cpi hijack: %s\n"
              fc.fc_subject fc.fc_plain fc.fc_certified fc.fc_unproven
              (if fc.fc_replay_ok then "ok" else "FAILED")
              (if fc.fc_cpi_hijacked then "YES" else "no")))
       fcs);
  let inv = invariants rep in
  let inv =
    match faults with
    | None -> inv
    | Some fcs ->
      inv @ [ ("certified implies no cpi hijack", faults_consistent fcs) ]
  in
  List.iter
    (fun (name, ok) ->
      Buffer.add_string b
        (Printf.sprintf "  invariant: %-45s %s\n" name
           (if ok then "ok" else "VIOLATED")))
    inv;
  Buffer.contents b

let to_record ?commit rep =
  let cells = all_cells rep in
  let dyn_cells = List.filter (fun c -> c.c_races <> []) cells in
  Runstore.make ~schema:schema_id ~kind:"crossval" ?commit ~config:"corpus"
    ~seed:0 ~wall_us:0
    [ ("subjects", Runstore.Int (List.length rep.rep_verdicts));
      ("cells", Runstore.Int (List.length cells));
      ( "static_races",
        Runstore.Int
          (List.fold_left
             (fun acc v -> acc + List.length v.v_races)
             0 rep.rep_verdicts) );
      ("dynamic_race_cells", Runstore.Int (List.length dyn_cells));
      ( "uncovered",
        Runstore.Int
          (List.fold_left (fun acc c -> acc + List.length c.c_uncovered) 0 cells) );
      ("invariants_ok", Runstore.Int (if invariants_ok rep then 1 else 0)) ]
