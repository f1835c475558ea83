(** Structured lint findings over MiniC programs: the back end of the
    [levee analyze] subcommand.

    The report combines the repo's static analyses into one deterministic
    document: unsafe casts and the loads the Castflow dataflow forces into
    the safe store, instrumentation the points-to refinement proves dead
    (provably data-only sensitive accesses), unreachable blocks, indirect
    calls whose callee can never be code, and per-function Table-2-style
    instrumentation percentages. The forced and demoted positions come
    from the sensitive-access plan ([Plan]) the CPI pass reads, so the
    report describes the decision CPI enforces.

    Severity [Error] is reserved for internal inconsistencies — the IR
    failing structural verification, or the refinement demoting a position
    the other analyses say must stay instrumented. A clean program lints
    with warnings and infos only; an error means a compiler bug. *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog

type severity = Info | Warning | Error

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

type finding = {
  severity : severity;
  kind : string;   (* stable identifier, e.g. "unsafe-cast" *)
  func : string;   (* "" for whole-program findings *)
  block : int;     (* -1 when not tied to a position *)
  idx : int;
  msg : string;
}

(* Table-2-style per-function statistics, computed on the uninstrumented
   program: what the CPI pass *would* do, before safe-stack rewriting. *)
type func_stats = {
  fs_name : string;
  fs_mem_ops : int;
  fs_sensitive : int;     (* type-rule sensitive accesses (Fig. 7) *)
  fs_forced : int;        (* loads forced by the unsafe-cast dataflow *)
  fs_char_demoted : int;  (* accesses demoted by the char* heuristic *)
  fs_demotable : int;     (* proven data-only by the points-to refinement *)
  fs_indirect_calls : int;
}

type sep_stats = {
  ss_plain : int;
  ss_certified : int;
  ss_unproven : int;
  ss_opaque : int;
  ss_replay_ok : bool;
}

type report = {
  source : string;
  findings : finding list;     (* sorted: func, block, idx, kind *)
  funcs : func_stats list;     (* program order *)
  races : Racecheck.race list option;
  sep : sep_stats option;
}

let count sev r =
  List.length (List.filter (fun f -> f.severity = sev) r.findings)

let has_errors r = List.exists (fun f -> f.severity = Error) r.findings

(* Canonical diagnostic order: position first, then kind and message, so
   the report (and its JSON bytes) are independent of emission order. *)
let sort_findings fs =
  let order f = (f.func, f.block, f.idx, f.kind, f.msg) in
  List.sort (fun a b -> compare (order a) (order b)) fs

let analyze ?(name = "<program>") (prog : Prog.t) : report =
  let findings = ref [] in
  let emit severity kind func block idx msg =
    findings := { severity; kind; func; block; idx; msg } :: !findings
  in
  (match Levee_ir.Verify.program_result prog with
   | Ok () -> ()
   | Error e -> emit Error "invalid-ir" "" (-1) (-1) e);
  let plan =
    Plan.create ~refine:true ~pinned:[]
      ~points_to:(fun () -> Pointsto.analyze prog) prog
  in
  let ctx = Plan.ctx plan in
  let pt = Plan.points_to plan in
  (* Functions reachable from a thread_spawn target via direct calls:
     sensitive accesses there execute concurrently with other threads,
     so the safe-store traffic they imply (sp-load/sp-store under CPI)
     must be serialised by a dominating mutex_lock. *)
  let spawn_reachable = Hashtbl.create 8 in
  Prog.iter_funcs prog (fun fn ->
      Prog.iter_instrs fn (fun i ->
          match i with
          | I.Intrin { op = I.I_thread_spawn; args = I.Fun f :: _; _ }
            when Prog.has_func prog f ->
            Hashtbl.replace spawn_reachable f ()
          | _ -> ()));
  let changed = ref true in
  while !changed do
    changed := false;
    Prog.iter_funcs prog (fun fn ->
        if Hashtbl.mem spawn_reachable fn.Prog.fname then
          Prog.iter_instrs fn (fun i ->
              match i with
              | I.Call { callee = I.Direct g; _ }
                when Prog.has_func prog g
                     && not (Hashtbl.mem spawn_reachable g) ->
                Hashtbl.replace spawn_reachable g ();
                changed := true
              | _ -> ()))
  done;
  let funcs = ref [] in
  Prog.iter_funcs prog (fun fn ->
      let fname = fn.Prog.fname in
      let f = Plan.func plan fname in
      let forced = Plan.forced f in
      let demoted = Plan.char_demoted f in
      let demotable = Plan.refined f in
      let casts = Castflow.unsafe_cast_positions ctx fn in
      let mem_ops = ref 0 and sensitive = ref 0 and indirect = ref 0 in
      let g = Dataflow.build fn in
      Array.iteri
        (fun bi (b : Prog.block) ->
          (* Empty unreachable blocks are lowering plumbing (join points
             after returns); only flag dead blocks holding real code. *)
          if g.Dataflow.rpo_index.(bi) < 0 && Array.length b.Prog.instrs > 0
          then
            emit Warning "dead-block" fname b.Prog.bid (-1)
              "unreachable basic block (never analysed or instrumented)";
          Array.iteri
            (fun idx (i : I.instr) ->
              match i with
              | I.Load { ty; _ } | I.Store { ty; _ } ->
                incr mem_ops;
                if Sensitivity.is_sensitive ctx ty then incr sensitive;
                if Hashtbl.mem demotable (b.Prog.bid, idx) then
                  emit Info "dead-instrumentation" fname b.Prog.bid idx
                    "sensitive access is provably data-only; CPI demotes it \
                     to a plain access"
              | I.Call { callee = I.Indirect op; _ } ->
                incr indirect;
                let objs = Pointsto.points_to pt ~fname op in
                if objs <> [] && not (Pointsto.value_may_be_code pt ~fname op)
                then
                  emit Warning "never-code-callee" fname b.Prog.bid idx
                    "indirect call through a value that can never hold a \
                     code pointer; this call can only trap"
              | I.Alloca _ | I.Bin _ | I.Cmp _ | I.Gep _ | I.Cast _
              | I.Call _ | I.Intrin _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks;
      if Hashtbl.mem spawn_reachable fname then begin
        (* Minimum lock depth at each point (forward dataflow, join =
           min): a sensitive shared access at possible depth 0 may race
           on the safe store from a spawned thread. *)
        let locals = Hashtbl.create 8 in
        Prog.iter_instrs fn (fun i ->
            match i with
            | I.Alloca { dst; _ } -> Hashtbl.replace locals dst ()
            | _ -> ());
        let step d (i : I.instr) =
          match i with
          | I.Intrin { op = I.I_mutex_lock; _ } -> d + 1
          | I.Intrin { op = I.I_mutex_unlock; _ } -> max 0 (d - 1)
          | _ -> d
        in
        let entry_depth =
          Dataflow.solve g ~entry:(Some 0) ~bottom:None
            ~join:(fun a b ->
              match (a, b) with
              | None, x | x, None -> x
              | Some a, Some b -> Some (min a b))
            ~equal:( = )
            ~transfer:(fun bi d ->
              match d with
              | None -> None
              | Some d ->
                Some
                  (Array.fold_left step d fn.Prog.blocks.(bi).Prog.instrs))
        in
        Array.iteri
          (fun bi (b : Prog.block) ->
            match entry_depth.(bi) with
            | None -> ()
            | Some d0 ->
              let d = ref d0 in
              Array.iteri
                (fun idx (i : I.instr) ->
                  (match i with
                   | I.Load { ty; addr; _ } | I.Store { ty; addr; _ }
                     when Sensitivity.is_sensitive ctx ty ->
                     let local =
                       match addr with
                       | I.Reg r -> Hashtbl.mem locals r
                       | _ -> false
                     in
                     if !d = 0 && not local then
                       emit Warning "thread-unsafe-intrinsic" fname
                         b.Prog.bid idx
                         "sensitive access reachable from a spawned thread \
                          without a dominating lock; concurrent safe-store \
                          updates can race"
                   | _ -> ());
                  d := step !d i)
                b.Prog.instrs)
          fn.Prog.blocks
      end;
      Hashtbl.iter
        (fun (blk, idx) () ->
          emit Warning "unsafe-cast" fname blk idx
            "cast produces a sensitive pointer type; the source value's \
             provenance must be recovered")
        casts;
      Hashtbl.iter
        (fun (blk, idx) () ->
          emit Warning "castflow-forced-load" fname blk idx
            "load forced through the safe store: its value flows into a \
             cast to a sensitive pointer type")
        forced;
      (* Internal consistency: the refinement must never demote a position
         the other analyses exclude. *)
      Hashtbl.iter
        (fun (blk, idx) () ->
          if Hashtbl.mem forced (blk, idx) || Hashtbl.mem demoted (blk, idx)
          then
            emit Error "inconsistent-demotion" fname blk idx
              "points-to refinement demoted a position that must stay \
               instrumented (analysis bug)")
        demotable;
      funcs :=
        { fs_name = fname;
          fs_mem_ops = !mem_ops;
          fs_sensitive = !sensitive;
          fs_forced = Hashtbl.length forced;
          fs_char_demoted = Hashtbl.length demoted;
          fs_demotable = Hashtbl.length demotable;
          fs_indirect_calls = !indirect }
        :: !funcs);
  { source = name;
    findings = sort_findings !findings;
    funcs = List.rev !funcs;
    races = None;
    sep = None }

let add_races r (races : Racecheck.race list) =
  let findings =
    List.fold_left
      (fun acc (rc : Racecheck.race) ->
        match rc.Racecheck.rc_sites with
        | [] -> acc
        | (first : Racecheck.site) :: _ ->
          { severity = Warning;
            kind = "potential-race";
            func = first.Racecheck.st_func;
            block = first.Racecheck.st_block;
            idx = first.Racecheck.st_idx;
            msg =
              Printf.sprintf
                "%s (%s) is written without a common lock by concurrent \
                 threads (%d access sites)"
                rc.Racecheck.rc_obj rc.Racecheck.rc_storage
                (List.length rc.Racecheck.rc_sites) }
          :: acc)
      r.findings races
  in
  { r with races = Some races; findings = sort_findings findings }

let add_separation r (sep : Racecheck.separation) =
  let findings =
    List.fold_left
      (fun acc (u : Racecheck.unproven) ->
        { severity = Info;
          kind = "unproven-separation";
          func = u.Racecheck.up_func;
          block = u.Racecheck.up_block;
          idx = u.Racecheck.up_idx;
          msg =
            "plain store not certified as separate from safe-region \
             storage: " ^ u.Racecheck.up_reason }
        :: acc)
      r.findings sep.Racecheck.sp_unproven
  in
  let findings =
    match sep.Racecheck.sp_replay with
    | Ok () -> findings
    | Error e ->
      { severity = Error; kind = "separation-replay"; func = ""; block = -1;
        idx = -1;
        msg = "separation certificates failed independent replay: " ^ e }
      :: findings
  in
  let stats =
    { ss_plain = sep.Racecheck.sp_plain;
      ss_certified = List.length sep.Racecheck.sp_certs;
      ss_unproven = List.length sep.Racecheck.sp_unproven;
      ss_opaque = List.length sep.Racecheck.sp_model.Levee_ir.Verify.sm_opaque;
      ss_replay_ok = sep.Racecheck.sp_replay = Ok () }
  in
  { r with sep = Some stats; findings = sort_findings findings }

(* ---------- rendering ---------- *)

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let finding_to_string f =
  let where =
    if f.block < 0 then f.func
    else if f.idx < 0 then Printf.sprintf "%s@b%d" f.func f.block
    else Printf.sprintf "%s@b%d.%d" f.func f.block f.idx
  in
  Printf.sprintf "%-7s %-22s %-16s %s" (severity_name f.severity) f.kind
    where f.msg

let to_human ?elided ?demoted r =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "== levee analyze: %s ==\n" r.source);
  Buffer.add_string b
    (Printf.sprintf "%-16s %7s %9s %6s %6s %9s %8s\n" "function" "mem-ops"
       "sensitive" "forced" "char-" "demotable" "icalls");
  List.iter
    (fun fs ->
      Buffer.add_string b
        (Printf.sprintf "%-16s %7d %4d(%4.1f%%) %6d %6d %9d %8d\n" fs.fs_name
           fs.fs_mem_ops fs.fs_sensitive
           (pct fs.fs_sensitive fs.fs_mem_ops)
           fs.fs_forced fs.fs_char_demoted fs.fs_demotable
           fs.fs_indirect_calls))
    r.funcs;
  if r.findings <> [] then begin
    Buffer.add_string b "\n";
    List.iter
      (fun f -> Buffer.add_string b (finding_to_string f ^ "\n"))
      r.findings
  end;
  (match r.races with
   | None -> ()
   | Some races ->
     Buffer.add_string b
       (Printf.sprintf "\nstatic races: %d racy object(s)\n"
          (List.length races));
     List.iter
       (fun (rc : Racecheck.race) ->
         Buffer.add_string b
           (Printf.sprintf "  %-24s %-12s %d site(s)\n" rc.Racecheck.rc_obj
              rc.Racecheck.rc_storage
              (List.length rc.Racecheck.rc_sites)))
       races);
  (match r.sep with
   | None -> ()
   | Some s ->
     Buffer.add_string b
       (Printf.sprintf
          "\nsafe-region separation: %d plain store(s), %d certified, %d \
           unproven, %d opaque-safe; certificate replay: %s\n"
          s.ss_plain s.ss_certified s.ss_unproven s.ss_opaque
          (if s.ss_replay_ok then "ok" else "FAILED")));
  (match (elided, demoted) with
   | Some e, Some d ->
     Buffer.add_string b
       (Printf.sprintf "\ncpi pipeline: %d checks elided, %d accesses demoted\n"
          e d)
   | Some e, None ->
     Buffer.add_string b (Printf.sprintf "\ncpi pipeline: %d checks elided\n" e)
   | None, Some d ->
     Buffer.add_string b
       (Printf.sprintf "\ncpi pipeline: %d accesses demoted\n" d)
   | None, None -> ());
  Buffer.add_string b
    (Printf.sprintf "%d error(s), %d warning(s), %d info(s)\n" (count Error r)
       (count Warning r) (count Info r));
  Buffer.contents b

(* /2 added the optional "races" and "separation" sections and pinned the
   canonical finding order; /1 documents are a strict subset. *)
let schema_id = "levee-analyze/2"

let to_json ?elided ?demoted r =
  let module J = Levee_support.Jsonenc in
  let str s = J.Jstr s and int i = J.Jint i in
  let finding f =
    J.Jobj
      [ ("severity", str (severity_name f.severity)); ("kind", str f.kind);
        ("func", str f.func); ("block", int f.block); ("idx", int f.idx);
        ("msg", str f.msg) ]
  in
  let func fs =
    J.Jobj
      [ ("name", str fs.fs_name); ("mem_ops", int fs.fs_mem_ops);
        ("sensitive", int fs.fs_sensitive);
        ("sensitive_pct", J.Jfloat (pct fs.fs_sensitive fs.fs_mem_ops));
        ("forced", int fs.fs_forced); ("char_demoted", int fs.fs_char_demoted);
        ("demotable", int fs.fs_demotable);
        ("indirect_calls", int fs.fs_indirect_calls) ]
  in
  let site (s : Racecheck.site) =
    J.Jobj
      [ ("func", str s.Racecheck.st_func);
        ("block", int s.Racecheck.st_block);
        ("idx", int s.Racecheck.st_idx);
        ("write", J.Jbool s.Racecheck.st_write);
        ("locked", J.Jbool s.Racecheck.st_locked) ]
  in
  let race (rc : Racecheck.race) =
    J.Jobj
      [ ("object", str rc.Racecheck.rc_obj);
        ("storage", str rc.Racecheck.rc_storage);
        ("sites", J.Jlist (List.map site rc.Racecheck.rc_sites)) ]
  in
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let cpi =
    opt "checks_elided" int elided @ opt "mem_ops_demoted" int demoted
  in
  J.to_document
    (J.Jobj
       ([ ("schema", str schema_id); ("source", str r.source);
          ("findings", J.Jlist (List.map finding r.findings));
          ("functions", J.Jlist (List.map func r.funcs)) ]
       @ opt "races" (fun races -> J.Jlist (List.map race races)) r.races
       @ opt "separation"
           (fun s ->
             J.Jobj
               [ ("plain_stores", int s.ss_plain);
                 ("certified", int s.ss_certified);
                 ("unproven", int s.ss_unproven);
                 ("opaque_safe", int s.ss_opaque);
                 ("replay_ok", J.Jbool s.ss_replay_ok) ])
           r.sep
       @ (if cpi = [] then [] else [ ("cpi", J.Jobj cpi) ])
       @ [ ( "totals",
             J.Jobj
               [ ("errors", int (count Error r));
                 ("warnings", int (count Warning r));
                 ("info", int (count Info r)) ] ) ]))

(* Analysis counts are a pure function of the source, so every field sits
   at 0% tolerance under `levee history --gate`: any drift in finding or
   certification counts is a regression (or an intentional change to be
   re-baselined), never noise. *)
let to_record ?commit ?(name = "<program>") r =
  let module Runstore = Levee_support.Runstore in
  Runstore.make ~schema:schema_id ~kind:"analyze" ?commit ~config:name ~seed:0
    ~wall_us:0
    ([ ("functions", Runstore.Int (List.length r.funcs));
       ("findings_errors", Runstore.Int (count Error r));
       ("findings_warnings", Runstore.Int (count Warning r));
       ("findings_info", Runstore.Int (count Info r)) ]
    @ (match r.races with
      | None -> []
      | Some races -> [ ("races_static", Runstore.Int (List.length races)) ])
    @
    match r.sep with
    | None -> []
    | Some s ->
      [ ("sep_certified", Runstore.Int s.ss_certified);
        ("sep_unproven", Runstore.Int s.ss_unproven);
        ("sep_replay_ok", Runstore.Int (if s.ss_replay_ok then 1 else 0)) ])
