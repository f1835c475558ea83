(* Append-only run-store (see runstore.mli).

   One JSONL history file — RUNS.jsonl by default — where every harness
   (bench journals, fault and serve campaigns, crossval, analyze, `levee
   conc`) appends its summary records. A record is a single
   line, so appends from different invocations never interleave
   partially, the file is trivially diffable, and truncation corrupts at
   most the final line (which the loader reports precisely instead of
   crashing on). *)

module J = Jsonenc

type value = Int of int | Float of float | Str of string

type record = {
  schema : string;
  kind : string;
  commit : string;
  config : string;
  seed : int;
  wall_us : int;
  metrics : (string * value) list;
}

let envelope = "levee-history/1"
let default_path = "RUNS.jsonl"

let detect_commit () =
  match Sys.getenv_opt "LEVEE_COMMIT" with
  | Some c when c <> "" -> c
  | _ ->
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let make ~schema ~kind ?commit ~config ?(seed = 0) ?(wall_us = 0) metrics =
  let commit = match commit with Some c -> c | None -> detect_commit () in
  { schema; kind; commit; config; seed; wall_us; metrics }

let key r = (r.schema, r.commit, r.config, r.seed)

(* ---------- encoding ---------- *)

let to_line r =
  let value = function
    | Int i -> J.Jint i
    | Float f -> J.Jfloat f
    | Str s -> J.Jstr s
  in
  J.to_line
    (J.Jobj
       [ ("v", J.Jstr envelope); ("schema", J.Jstr r.schema);
         ("kind", J.Jstr r.kind); ("commit", J.Jstr r.commit);
         ("config", J.Jstr r.config); ("seed", J.Jint r.seed);
         ("wall_us", J.Jint r.wall_us);
         ( "metrics",
           J.Jobj (List.map (fun (k, v) -> (k, value v)) r.metrics) ) ])

let of_line line =
  try
    let j = J.parse line in
    let str k = J.as_str (J.field k j) in
    let int k = J.as_int (J.field k j) in
    let v = str "v" in
    if v <> envelope then
      Error (Printf.sprintf "unknown record version %s (want %s)" v envelope)
    else begin
      let metrics =
        match J.field "metrics" j with
        | J.Jobj kvs ->
          List.map
            (fun (k, v) ->
              match v with
              | J.Jint i -> (k, Int i)
              | J.Jfloat f -> (k, Float f)
              | J.Jstr s -> (k, Str s)
              | _ ->
                raise
                  (J.Bad
                     (Printf.sprintf "metric %s: expected int, float or string"
                        k)))
            kvs
        | _ -> raise (J.Bad "metrics: expected object")
      in
      Ok
        { schema = str "schema"; kind = str "kind"; commit = str "commit";
          config = str "config"; seed = int "seed"; wall_us = int "wall_us";
          metrics }
    end
  with J.Bad msg -> Error ("malformed record: " ^ msg)

(* ---------- the store ---------- *)

let append ?(path = default_path) r =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  output_string oc (to_line r);
  output_char oc '\n';
  close_out oc

let load ?(path = default_path) () =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no such run store" path)
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | "" -> go (lineno + 1) acc
          | line ->
            (match of_line line with
             | Ok r -> go (lineno + 1) (r :: acc)
             | Error msg ->
               Error (Printf.sprintf "%s:%d: %s" path lineno msg))
        in
        go 1 [])
  end

let find rs spec =
  let n = List.length rs in
  let by_index i =
    if i >= 0 && i < n then Ok (List.nth rs i)
    else
      Error
        (Printf.sprintf "run %d out of range (store has %d run%s)" i n
           (if n = 1 then "" else "s"))
  in
  match spec with
  | "last" -> if n = 0 then Error "empty run store" else by_index (n - 1)
  | "prev" ->
    if n < 2 then Error "run store holds fewer than two runs"
    else by_index (n - 2)
  | s ->
    (match int_of_string_opt s with
     | Some i -> by_index (if i < 0 then n + i else i)
     | None ->
       (match List.filter (fun r -> r.config = s) rs with
        | [] -> Error (Printf.sprintf "no run with config %S" s)
        | l -> Ok (List.nth l (List.length l - 1))))

(* ---------- diffing ---------- *)

type delta = {
  field : string;
  va : value option;
  vb : value option;
  pct : float option;
}

let numeric = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Str _ -> None

let delta_pct va vb =
  match (va, vb) with
  | Some x, Some y ->
    (match (numeric x, numeric y) with
     | Some fx, Some fy ->
       let den =
         if fx <> 0.0 then abs_float fx
         else if fy <> 0.0 then abs_float fy
         else 1.0
       in
       Some ((fy -. fx) /. den *. 100.0)
     | _ -> None)
  | _ -> None

let diff a b =
  let an = List.map fst a.metrics in
  let bn = List.map fst b.metrics in
  let names = an @ List.filter (fun k -> not (List.mem k an)) bn in
  let row field va vb = { field; va; vb; pct = delta_pct va vb } in
  row "wall_us" (Some (Int a.wall_us)) (Some (Int b.wall_us))
  :: List.map
       (fun k ->
         row k (List.assoc_opt k a.metrics) (List.assoc_opt k b.metrics))
       names

let value_display = function
  | Int i -> string_of_int i
  | Float f -> J.float_str f
  | Str s -> s

let signed_pct p =
  let s = J.float_str p in
  if String.length s > 0 && s.[0] = '-' then s ^ "%" else "+" ^ s ^ "%"

let describe r =
  Printf.sprintf "%s/%s seed %d commit %s (%s)" r.kind r.config r.seed
    r.commit r.schema

let diff_human a b =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "a: %s\n" (describe a));
  Buffer.add_string buf (Printf.sprintf "b: %s\n" (describe b));
  Buffer.add_string buf
    (Printf.sprintf "  %-22s %14s %14s %10s\n" "field" "a" "b" "delta");
  List.iter
    (fun d ->
      let v = function Some x -> value_display x | None -> "-" in
      let pct =
        match d.pct with Some p -> signed_pct p | None -> "-"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-22s %14s %14s %10s\n" d.field (v d.va) (v d.vb)
           pct))
    (diff a b);
  Buffer.contents buf

(* ---------- the regression gate ---------- *)

let default_tolerances =
  [ ("cycles", 5.0); ("sim_cycles", 5.0); ("wall_us", 50.0);
    ("wall_us_total", 50.0);
    (* Static-analysis and cross-validation counts are pure functions of
       the analyzed source, so they gate at exactly 0%: any drift is a
       real behaviour change to re-baseline deliberately, never noise. *)
    ("functions", 0.0); ("findings_errors", 0.0);
    ("findings_warnings", 0.0); ("findings_info", 0.0);
    ("races_static", 0.0); ("sep_certified", 0.0); ("sep_unproven", 0.0);
    ("sep_replay_ok", 0.0); ("subjects", 0.0); ("cells", 0.0);
    ("static_races", 0.0); ("dynamic_race_cells", 0.0); ("uncovered", 0.0);
    ("invariants_ok", 0.0);
    (* Serve records (levee-serve/1): latency percentiles are simulated
       cycles, so they may drift with deliberate cost-model changes —
       gate them like cycles, at 5%. The terminal accounting and fault
       bookkeeping are exact, so those gate at 0%. *)
    ("p50_cycles", 5.0); ("p99_cycles", 5.0); ("p999_cycles", 5.0);
    ("arrivals", 0.0); ("served", 0.0); ("shed", 0.0); ("timed_out", 0.0);
    ("retried", 0.0); ("killed_workers", 0.0); ("breaker_trips", 0.0);
    (* Fault-campaign records (levee-faults/3): the run classification and
       the per-backend hijack counts over the protection spectrum are
       exact functions of the campaign seed, so any drift is a behaviour
       change — gate at 0%. Aggregate simulated cycles gate like every
       other cycle metric, at 5% (the "cycles" entry above covers them).
       Stores written before the perf harness was retired also hold
       levee-bench-perf/3 records, whose simulated totals gate on the
       sim_cycles/sim_instrs entries. *)
    ("runs", 0.0); ("hijacked", 0.0); ("trapped", 0.0); ("crash", 0.0);
    ("masked", 0.0); ("benign", 0.0); ("fuel_exhausted", 0.0);
    ("hijacked_vanilla", 0.0); ("hijacked_cfi", 0.0);
    ("hijacked_cfi_type", 0.0); ("hijacked_cpi", 0.0);
    ("hijacked_cpi_crypt", 0.0);
    ("sim_instrs", 5.0) ]

type violation = {
  vfield : string;
  vbase : float;
  vnew : float;
  vpct : float;
  vtol : float;
}

let gate ?(tolerances = default_tolerances) a b =
  List.filter_map
    (fun d ->
      match (List.assoc_opt d.field tolerances, d.pct) with
      | Some tol, Some pct when abs_float pct > tol ->
        let f = function
          | Some v -> (match numeric v with Some x -> x | None -> 0.0)
          | None -> 0.0
        in
        Some
          { vfield = d.field; vbase = f d.va; vnew = f d.vb; vpct = pct;
            vtol = tol }
      | _ -> None)
    (diff a b)

let num_display v =
  if Float.is_integer v && abs_float v < 1e15 then
    Printf.sprintf "%.0f" v
  else J.float_str v

let gate_human violations =
  match violations with
  | [] -> "gate: OK (all gated deltas within tolerance)\n"
  | vs ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf "gate: FAIL\n";
    List.iter
      (fun v ->
        Buffer.add_string buf
          (Printf.sprintf "  %s: %s -> %s (%s exceeds tolerance %s%%)\n"
             v.vfield (num_display v.vbase) (num_display v.vnew)
             (signed_pct v.vpct) (J.float_str v.vtol)))
      vs;
    Buffer.contents buf

(* ---------- trajectory listing ---------- *)

let list_human rs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "  %3s  %-7s %-24s %-10s %5s %12s %12s  %s\n" "#" "kind"
       "config" "commit" "seed" "cycles" "wall_us" "schema");
  List.iteri
    (fun i r ->
      let cycles =
        match
          ( List.assoc_opt "cycles" r.metrics,
            List.assoc_opt "sim_cycles" r.metrics )
        with
        | Some v, _ | None, Some v -> value_display v
        | None, None -> "-"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %3d  %-7s %-24s %-10s %5d %12s %12d  %s\n" i
           r.kind r.config r.commit r.seed cycles r.wall_us r.schema))
    rs;
  Buffer.contents buf
