(* Fault-injection campaign driver (see faults.mli).

   Parallel structure mirrors Engine: the submitting domain compiles each
   subject once, and each (subject, config) pair is one pool task that
   builds the images from that shared program ([P.build] writes only its
   own knobs, so the tasks only read it), runs the un-faulted baseline
   and then every plan; the submitting domain integrates results in
   submission order, so the report is independent of [jobs]. Images are built per task:
   they lay out and compile functions on first use, so they are never
   shared. *)

module P = Levee_core.Pipeline
module M = Levee_machine
module A = Levee_attacks
module Pool = Levee_support.Pool
module J = Levee_support.Jsonenc
module Runstore = Levee_support.Runstore

let schema_id = "levee-faults/3"

type subject = {
  sname : string;
  source : string;
  input : int array;
  fuel : int;
  splans : A.Faultplan.t list;
  sseeds : int list;  (* scheduler seeds to sweep (single-threaded: [0]) *)
}

type campaign = {
  cname : string;
  seed : int;
  subjects : subject list;
  configs : (P.protection * M.Safestore.impl) list;
}

(* ---------- the smoke campaign ---------- *)

(* Both subjects dispatch through a code pointer inside a long loop, so a
   mid-loop corruption lands while the pointer is both live and about to
   be used; [backdoor] is the hijack witness ([system] => [Hijacked]). *)

let dispatch_src = {|
int helper(int x) { return x + 1; }
int backdoor() { system("pwn"); return 1; }
int work(int n) {
  int (*fp)(int);
  int acc;
  int i;
  fp = helper;
  acc = 0;
  i = 0;
  while (i < n) {
    acc = acc + fp(i);
    i = i + 1;
  }
  checksum(acc);
  return acc;
}
int main() { work(40); print_str("done"); return 0; }
|}

let gdispatch_src = {|
int helper(int x) { return x + 2; }
int backdoor() { system("pwn"); return 1; }
int (*gfp)(int) = helper;
int main() {
  int acc;
  int i;
  acc = 0;
  i = 0;
  while (i < 30) {
    acc = acc + gfp(i);
    i = i + 1;
  }
  checksum(acc);
  print_str("done");
  return 0;
}
|}

(* Concurrent subject: two workers drain a shared queue and dispatch
   every request through a shared function-pointer table, so a
   mid-drain corruption of the table, of a worker's return slot, or of
   a worker's safe stack lands while another thread is running — the
   cross-thread variants of the classic attacks. *)
let conc_src = {|
int queue[80]; int qhead; int qtail; int qlock;
int acc; int acclock;
int backdoor() { system("pwn"); return 1; }
int step_inc(int r) { return r + 1; }
int step_mix(int r) { return r * 2 + 1; }
int (*wfp[2])(int) = { step_inc, step_mix };
int worker(int wid) {
  int mine = 0;
  int done = 0;
  while (done == 0) {
    int req = -1;
    mutex_lock(&qlock);
    if (qhead < qtail) { req = queue[qhead]; qhead = qhead + 1; }
    mutex_unlock(&qlock);
    if (req < 0) { done = 1; }
    else {
      int r = wfp[req & 1](wfp[(req + 1) & 1](req));
      mutex_lock(&acclock);
      acc = (acc + r) & 16777215;
      mutex_unlock(&acclock);
      mine = mine + 1;
    }
  }
  return mine;
}
int main() {
  int i; int t1; int t2; int total;
  for (i = 0; i < 80; i = i + 1) { queue[i] = i * 7 + 3; }
  qtail = 80;
  t1 = thread_spawn(worker, 1);
  t2 = thread_spawn(worker, 2);
  total = thread_join(t1) + thread_join(t2);
  checksum(acc + total);
  print_str("done");
  return 0;
}
|}

(* Spectrum subject (mirrors examples/minic/fptr_zoo.c): the fp call's
   signature class is {add, evil} — evil is address-taken through
   [evil_ref] but never called benignly — so a same-signature swap to
   [evil] pierces cfi-type while the cross-signature [backdoor] does not.
   CPI and cpi-crypt refuse both: the pointer is protected, not the set. *)
let fptr_zoo_src = {|
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int evil(int a, int b) { system("pwn"); return a; }
int backdoor() { system("pwn"); return 1; }
int (*evil_ref)(int, int) = evil;
int out(int x) { return x & 65535; }
int (*post)(int) = out;
int zoo(int n) {
  int (*fp)(int, int);
  int acc;
  int i;
  fp = add;
  acc = 0;
  i = 0;
  while (i < n) {
    acc = post(acc + fp(i, 2));
    i = i + 1;
  }
  checksum(acc);
  return acc;
}
int main() { zoo(60); print_str("done"); return 0; }
|}

let smoke ?(seed = 42) () =
  let open A.Faultplan in
  let ev step action = { step; action } in
  let backdoor = Code_entry "backdoor" in
  let chain = [ "main"; "work" ] in
  let dispatch =
    { sname = "dispatch"; source = dispatch_src; input = [||]; fuel = 200_000;
      sseeds = [ 0 ];
      splans =
        [ make ~name:"ret-to-backdoor"
            [ ev 100 (Write { site = Ret_slot chain; value = backdoor }) ];
          (* [work]'s allocas in order: the [n] parameter spill, then
             [fp], [acc], [i]. *)
          make ~name:"fptr-hijack"
            [ ev 100
                (Write
                   { site = Var_slot { chain; index = 1 }; value = backdoor })
            ];
          make ~name:"fptr-bitflip"
            [ ev 100 (Flip { site = Var_slot { chain; index = 1 }; bit = 3 }) ];
          make ~name:"acc-bitflip"
            [ ev 120 (Flip { site = Var_slot { chain; index = 2 }; bit = 0 }) ];
          make ~name:"safe-tamper"
            [ ev 80 (Write { site = Safe_site 4; value = Value 0xDEAD }) ];
        ] }
  in
  let g = Global ("gfp", 0) in
  let gdispatch =
    { sname = "gdispatch"; source = gdispatch_src; input = [||]; fuel = 200_000;
      sseeds = [ 0 ];
      splans =
        [ make ~name:"gfp-hijack" [ ev 60 (Write { site = g; value = backdoor }) ];
          make ~name:"gfp-bitflip" [ ev 60 (Flip { site = g; bit = 0 }) ];
          make ~name:"gfp-desync" [ ev 60 (Desync { site = g; delta = 3 }) ];
          make ~name:"gfp-dropmeta" [ ev 60 (Drop_meta g) ];
          make ~name:"safe-tamper"
            [ ev 80 (Write { site = Safe_site 4; value = Value 0xDEAD }) ];
        ] }
  in
  let conc =
    (* Steps ~1500-2500 land mid-drain: both workers are spawned within
       the first few hundred instructions and the queue lasts thousands. *)
    { sname = "conc"; source = conc_src; input = [||]; fuel = 200_000;
      sseeds = [ 0; 5 ];
      splans =
        [ make ~name:"wfp-hijack"
            [ ev 1500 (Write { site = Global ("wfp", 0); value = backdoor }) ];
          make ~name:"cross-thread-ret"
            [ ev 1500
                (Write
                   { site = Thread_ret { tid = 1; chain = [ "worker" ] };
                     value = backdoor }) ];
          make ~name:"cross-thread-safe-tamper"
            [ ev 1500
                (Write
                   { site = Thread_safe { tid = 1; off = 4 };
                     value = Value 0xDEAD }) ];
          make ~name:"cross-thread-stack-flip"
            [ ev 2000
                (Flip { site = Thread_stack { tid = 2; off = 8 }; bit = 5 }) ];
        ] }
  in
  let zoo_chain = [ "main"; "zoo" ] in
  let fptr_zoo =
    (* [zoo]'s allocas in order: the [n] parameter spill, then [fp],
       [acc], [i]. Step 150 lands a few iterations into the loop, with
       [fp] live and about to be dispatched through. *)
    { sname = "fptr_zoo"; source = fptr_zoo_src; input = [||]; fuel = 200_000;
      sseeds = [ 0 ];
      splans =
        [ make ~name:"same-sig-hijack"
            [ ev 150
                (Write
                   { site = Var_slot { chain = zoo_chain; index = 1 };
                     value = Code_entry "evil" }) ];
          make ~name:"cross-sig-hijack"
            [ ev 150
                (Write
                   { site = Var_slot { chain = zoo_chain; index = 1 };
                     value = backdoor }) ];
        ] }
  in
  let shared =
    List.init 4 (fun k ->
        random
          ~name:(Printf.sprintf "rand-%d" (k + 1))
          ~seed:((seed * 1000) + k + 1)
          ~events:3 ~max_step:400)
  in
  let with_shared s = { s with splans = s.splans @ shared } in
  { cname = "smoke"; seed;
    subjects =
      [ with_shared dispatch; with_shared gdispatch; with_shared conc;
        with_shared fptr_zoo ];
    configs =
      [ (P.Vanilla, M.Safestore.Simple_array);
        (P.Safe_stack, M.Safestore.Simple_array);
        (P.Cps, M.Safestore.Simple_array);
        (P.Cps, M.Safestore.Two_level);
        (P.Cps, M.Safestore.Hashtable);
        (P.Cpi, M.Safestore.Simple_array);
        (P.Cpi, M.Safestore.Two_level);
        (P.Cpi, M.Safestore.Hashtable);
        (* The graded spectrum (appended so the established rows keep
           their positions): coarse CFI, per-signature CFI, and keyed
           in-place encryption — none of which use the safe store. *)
        (P.Cfi, M.Safestore.Simple_array);
        (P.Cfi_type, M.Safestore.Simple_array);
        (P.Cpi_crypt, M.Safestore.Simple_array);
      ] }

(* ---------- execution ---------- *)

type run = {
  r_subject : string;
  r_plan : string;
  r_protection : P.protection;
  r_store : M.Safestore.impl;
  r_sched_seed : int;
  r_class : string;
  r_outcome : string;
  r_instrs : int;
  r_cycles : int;
  r_checksum : int;
  r_model : bool;
  r_tamper : bool;
  r_meta : bool;
}

type report = {
  rep_campaign : campaign;
  rep_runs : run list;
}

let runs rep = rep.rep_runs

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

let images ~store prot prog =
  let vb = P.build ~store_impl:store P.Vanilla prog in
  let reference = M.Loader.load vb.P.prog vb.P.config in
  let deployed =
    if prot = P.Vanilla then reference
    else
      let b = P.build ~store_impl:store prot prog in
      M.Loader.load b.P.prog b.P.config
  in
  (reference, deployed)

(* One pool task: everything for one (subject, protection, store), given
   the subject's compiled program. *)
let exec_config (s, prog, (prot, store)) =
  let reference, deployed = images ~store prot prog in
  List.concat_map
    (fun sched_seed ->
      let baseline =
        M.Interp.run ~input:s.input ~fuel:s.fuel ~sched_seed deployed
      in
      (match baseline.M.Interp.outcome with
       | M.Trap.Exit 0 -> ()
       | o ->
         failwith
           (Printf.sprintf "faults: baseline %s under %s (sched-seed %d) is %s"
              s.sname (P.protection_name prot) sched_seed
              (M.Trap.outcome_to_string o)));
      List.map
        (fun plan ->
          let faults = A.Faultplan.resolve ~reference ~deployed plan in
          let r =
            M.Interp.run ~input:s.input ~fuel:s.fuel ~faults ~sched_seed
              deployed
          in
          { r_subject = s.sname;
            r_plan = plan.A.Faultplan.name;
            r_protection = prot;
            r_store = store;
            r_sched_seed = sched_seed;
            r_class = classify ~baseline r;
            r_outcome = M.Trap.outcome_to_string r.M.Interp.outcome;
            r_instrs = r.M.Interp.instrs;
            r_cycles = r.M.Interp.cycles;
            r_checksum = r.M.Interp.checksum;
            r_model = A.Faultplan.within_attacker_model plan;
            r_tamper = A.Faultplan.pure_safe_tamper plan;
            r_meta = A.Faultplan.pure_metadata plan })
        s.splans)
    s.sseeds

let run ?(jobs = 1) campaign =
  let cells =
    List.concat_map
      (fun s ->
        let prog = Levee_minic.Lower.compile ~name:s.sname s.source in
        List.map (fun cfg -> (s, prog, cfg)) campaign.configs)
      campaign.subjects
  in
  { rep_campaign = campaign;
    rep_runs = List.concat (Pool.sweep ~jobs exec_config cells) }

(* ---------- invariants ---------- *)

let isolation_str = M.Trap.outcome_to_string (M.Trap.Trapped M.Trap.Isolation_violation)

let invariants rep =
  let rs = rep.rep_runs in
  [ ( "cpi implies no hijack (attacker-model plans)",
      not
        (List.exists
           (fun r ->
             r.r_protection = P.Cpi && r.r_model && r.r_class = "hijacked")
           rs) );
    ( "vanilla hijack witnessed",
      List.exists
        (fun r -> r.r_protection = P.Vanilla && r.r_class = "hijacked")
        rs );
    ( "safe-region tamper traps as isolation violation",
      List.for_all
        (fun r -> (not r.r_tamper) || r.r_outcome = isolation_str)
        rs );
    ( "vanilla hijack witnessed under every sched seed",
      List.for_all
        (fun seed ->
          List.exists
            (fun r ->
              r.r_sched_seed = seed && r.r_protection = P.Vanilla
              && r.r_class = "hijacked")
            rs)
        (List.sort_uniq compare (List.map (fun r -> r.r_sched_seed) rs)) );
    (* ---- the protection-spectrum invariants ---- *)
    (* Keyed in-place encryption keeps no safe store, so a plan made only
       of metadata attacks (Desync/Drop_meta) hits nothing: the run must
       be observationally identical to the un-faulted baseline. *)
    ( "cpi-crypt masks pure metadata-drop plans",
      List.for_all
        (fun r ->
          (not (r.r_protection = P.Cpi_crypt && r.r_meta))
          || r.r_class = "masked")
        rs );
    (* ... while the same plans do disturb a safe-region backend: the
       campaign must witness CPI actually depending on its metadata
       (otherwise the previous invariant is vacuous). *)
    ( "safe-region metadata corruption witnessed (cpi)",
      List.exists
        (fun r ->
          r.r_protection = P.Cpi && r.r_meta && r.r_class <> "masked")
        rs );
    (* Burow et al. ordering, lower bound: at least one plan hijacks
       coarse CFI while the per-signature sets refuse it (the
       cross-signature redirects — backdoor is a function entry, but the
       wrong type). *)
    ( "coarse cfi admits a hijack cfi-type refuses",
      List.exists
        (fun r ->
          r.r_protection = P.Cfi && r.r_class = "hijacked"
          && List.exists
               (fun r' ->
                 r'.r_protection = P.Cfi_type && r'.r_subject = r.r_subject
                 && r'.r_plan = r.r_plan && r'.r_sched_seed = r.r_sched_seed
                 && r'.r_class <> "hijacked")
               rs)
        rs );
    (* ... and upper bound: the same-signature swap stays inside the type
       set, so cfi-type is pierced where the pointer-centric backends are
       not — set precision cannot substitute for pointer integrity. *)
    ( "same-signature hijack pierces cfi-type but not cpi/cpi-crypt",
      List.exists
        (fun r ->
          r.r_protection = P.Cfi_type && r.r_plan = "same-sig-hijack"
          && r.r_class = "hijacked")
        rs
      && not
           (List.exists
              (fun r ->
                (r.r_protection = P.Cpi || r.r_protection = P.Cpi_crypt)
                && r.r_plan = "same-sig-hijack" && r.r_class = "hijacked")
              rs) );
    (* cpi-crypt's guarantee is unconditional on the plan class: even
       metadata attacks (outside the software attacker model) find no
       table to corrupt, and tampered ciphertext decrypts to garbled
       targets that trap rather than hijack. *)
    ( "cpi-crypt never hijacked (all plans)",
      not
        (List.exists
           (fun r -> r.r_protection = P.Cpi_crypt && r.r_class = "hijacked")
           rs) );
  ]

let invariants_ok rep = List.for_all snd (invariants rep)

(* ---------- reporting ---------- *)

let classes = [ "hijacked"; "trapped"; "crash"; "masked"; "benign"; "fuel-exhausted" ]

let plan_descrs campaign =
  List.concat_map
    (fun s ->
      List.map (fun (p : A.Faultplan.t) -> (s.sname, p)) s.splans)
    campaign.subjects

let count rep cls =
  List.length (List.filter (fun r -> r.r_class = cls) rep.rep_runs)

let hijacked rep prot =
  List.length
    (List.filter
       (fun r -> r.r_protection = prot && r.r_class = "hijacked")
       rep.rep_runs)

let to_json rep =
  let c = rep.rep_campaign in
  let str s = J.Jstr s and int i = J.Jint i in
  let plan_json (sname, (p : A.Faultplan.t)) =
    J.Jobj
      [ ("subject", str sname);
        ("name", str p.A.Faultplan.name);
        ("seed", int p.A.Faultplan.seed);
        ("events", int (List.length p.A.Faultplan.events));
        ("attacker_model", J.Jbool (A.Faultplan.within_attacker_model p));
        ("safe_tamper", J.Jbool (A.Faultplan.pure_safe_tamper p));
        ("targets_metadata", J.Jbool (A.Faultplan.targets_metadata p)) ]
  in
  let run_json r =
    J.Jobj
      [ ("subject", str r.r_subject);
        ("plan", str r.r_plan);
        ("protection", str (P.protection_name r.r_protection));
        ("store", str (M.Safestore.impl_name r.r_store));
        ("sched_seed", int r.r_sched_seed);
        ("class", str r.r_class);
        ("outcome", str r.r_outcome);
        ("instrs", int r.r_instrs);
        ("cycles", int r.r_cycles);
        ("checksum", int r.r_checksum) ]
  in
  let by_prot =
    List.filter_map
      (fun prot ->
        if List.exists (fun (p, _) -> p = prot) c.configs then
          Some (P.protection_name prot, int (hijacked rep prot))
        else None)
      P.all_protections
  in
  let inv_json =
    (* Paired with [invariants] by position: one stable key per verdict,
       in the same order the invariants are declared. *)
    let keys =
      [ "cpi_no_hijack"; "vanilla_hijack_witnessed"; "safe_tamper_isolation";
        "vanilla_hijack_every_seed"; "crypt_masks_metadata_drop";
        "cpi_metadata_witness"; "coarse_cfi_gap"; "same_sig_pierces_cfi_type";
        "cpi_crypt_no_hijack" ]
    in
    List.map2 (fun key (_, ok) -> (key, J.Jbool ok)) keys (invariants rep)
  in
  J.to_document
    (J.Jobj
       [ ("schema", str schema_id);
         ("campaign", str c.cname);
         ("seed", int c.seed);
         ("plans", J.Jlist (List.map plan_json (plan_descrs c)));
         ("runs", J.Jlist (List.map run_json rep.rep_runs));
         ( "summary",
           J.Jobj
             ([ ("runs", int (List.length rep.rep_runs)) ]
             @ List.map (fun cls -> (cls, int (count rep cls))) classes
             @ [ ("hijacked_by_protection", J.Jobj by_prot);
                 ("invariants", J.Jobj inv_json) ]) ) ])

(* The campaign carries no wall-clock, so its run-store record is fully
   deterministic: class counts, total simulated cycles, and the
   invariant verdict, keyed by the campaign seed. The per-backend hijack
   counts make the spectrum ordering (vanilla >= cfi >= cfi-type >= cpi =
   cpi-crypt = 0) a history-gated regression surface, not just a one-shot
   invariant. *)
let record_backends =
  [ P.Vanilla; P.Cfi; P.Cfi_type; P.Cpi; P.Cpi_crypt ]

let to_record ?commit rep =
  let c = rep.rep_campaign in
  let field_name prot =
    "hijacked_"
    ^ String.map
        (fun ch -> if ch = '-' then '_' else ch)
        (P.protection_name prot)
  in
  Runstore.make ~schema:schema_id ~kind:"faults" ?commit ~config:c.cname
    ~seed:c.seed ~wall_us:0
    ([ ("runs", Runstore.Int (List.length rep.rep_runs)) ]
    @ List.map
        (fun cls ->
          ( (if cls = "fuel-exhausted" then "fuel_exhausted" else cls),
            Runstore.Int (count rep cls) ))
        classes
    @ List.map
        (fun prot -> (field_name prot, Runstore.Int (hijacked rep prot)))
        record_backends
    @ [ ("cycles",
         Runstore.Int
           (List.fold_left (fun acc r -> acc + r.r_cycles) 0 rep.rep_runs));
        ("invariants_ok", Runstore.Int (if invariants_ok rep then 1 else 0)) ])

let to_human rep =
  let b = Buffer.create 1024 in
  let c = rep.rep_campaign in
  Buffer.add_string b
    (Printf.sprintf "fault campaign '%s' (seed %d): %d runs\n" c.cname c.seed
       (List.length rep.rep_runs));
  Buffer.add_string b
    (Printf.sprintf "  %-22s %9s %8s %6s %7s %7s %5s\n" "config" "hijacked"
       "trapped" "crash" "masked" "benign" "fuel");
  List.iter
    (fun (prot, store) ->
      let mine =
        List.filter
          (fun r -> r.r_protection = prot && r.r_store = store)
          rep.rep_runs
      in
      let n cls = List.length (List.filter (fun r -> r.r_class = cls) mine) in
      Buffer.add_string b
        (Printf.sprintf "  %-22s %9d %8d %6d %7d %7d %5d\n"
           (P.protection_name prot ^ "/" ^ M.Safestore.impl_name store)
           (n "hijacked") (n "trapped") (n "crash") (n "masked") (n "benign")
           (n "fuel-exhausted")))
    c.configs;
  List.iter
    (fun (name, ok) ->
      Buffer.add_string b
        (Printf.sprintf "  invariant: %-48s %s\n" name
           (if ok then "OK" else "VIOLATED")))
    (invariants rep);
  Buffer.contents b
