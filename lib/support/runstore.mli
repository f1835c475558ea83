(** Append-only run-store: the repo's performance-trajectory history.

    Every harness in the tree — the bench journals, fault and serve
    campaigns, crossval, analyze, `levee conc` — appends summary
    {!record}s to a single JSONL file ([RUNS.jsonl] by default):
    one JSON object per line, envelope version [levee-history/1], keyed
    by [(schema, commit, config, seed)]. The file is append-only and
    diffable; `levee history` lists the trajectory, diffs any two runs
    field-by-field, and gates per-field deltas against tolerances so a
    perf regression is a test failure, not a prose convention.

    Records are deterministic bytes: producers zero [wall_us] (or the
    caller ignores it), metric order is the insertion order, and floats
    use {!Jsonenc.float_str}'s single dialect; a record prints through
    {!Jsonenc.to_line} — so the same run appended
    under any [--jobs] width yields byte-identical lines. *)

(** A metric value. Ints dominate; floats (one-decimal dialect) carry
    rates such as [cells_per_sec]; strings carry verdicts. *)
type value = Int of int | Float of float | Str of string

type record = {
  schema : string;   (** producer schema, e.g. ["levee-bench-journal/5"] *)
  kind : string;     (** producer family: ["bench"], ["conc"], ... *)
  commit : string;   (** source revision, or ["unknown"] *)
  config : string;   (** run configuration, e.g. ["table1"], ["web-conc-t4-s0"] *)
  seed : int;        (** campaign / scheduler seed (0 when inert) *)
  wall_us : int;     (** wall-clock microseconds; 0 for deterministic producers *)
  metrics : (string * value) list;
      (** ordered open-ended metrics ([cycles], [checks_elided], [races],
          p-latencies when a producer reports them, ...) *)
}

(** ["levee-history/1"] — the record envelope version. *)
val envelope : string

(** ["RUNS.jsonl"] *)
val default_path : string

(** [$LEVEE_COMMIT] if set, else [git rev-parse --short HEAD], else
    ["unknown"]. Never raises. *)
val detect_commit : unit -> string

(** [commit] defaults to {!detect_commit}; [seed] and [wall_us] to 0. *)
val make :
  schema:string ->
  kind:string ->
  ?commit:string ->
  config:string ->
  ?seed:int ->
  ?wall_us:int ->
  (string * value) list ->
  record

(** The identity of a run in the history. *)
val key : record -> string * string * string * int

(** One line of JSON, no trailing newline. Deterministic bytes. *)
val to_line : record -> string

(** Parse one line. Malformed or truncated input yields [Error] with a
    precise message (offset / missing field / version mismatch) — never
    an exception. *)
val of_line : string -> (record, string) result

(** Append one record (plus newline) to the store, creating it if
    needed. *)
val append : ?path:string -> record -> unit

(** Read the whole store in append order. Blank lines are skipped; the
    first malformed line yields [Error "<path>:<line>: <why>"]. *)
val load : ?path:string -> unit -> (record list, string) result

(** Resolve a run spec against a loaded store: a 0-based index (negative
    counts from the end), ["last"], ["prev"], or a config name (most
    recent match). *)
val find : record list -> string -> (record, string) result

(** One field of a diff: values from run a and run b (either may be
    absent) and the signed percentage delta when both are numeric,
    relative to |a| (or |b| when a is zero; 0 when both are zero). *)
type delta = {
  field : string;
  va : value option;
  vb : value option;
  pct : float option;
}

(** Field-by-field comparison: [wall_us] first, then the union of both
    records' metrics in a's order (b-only fields last). *)
val diff : record -> record -> delta list

(** Rendered diff table; deterministic (pinned by golden tests). *)
val diff_human : record -> record -> string

(** Per-field percentage tolerances the gate applies by default:
    [cycles]/[sim_cycles] and the serve latency percentiles
    ([p50_cycles]/[p99_cycles]/[p999_cycles]) 5%, [wall_us]/
    [wall_us_total] 50%, and exact-count fields (analysis findings,
    serve terminal accounting) 0%. Fields not listed are reported by
    {!diff} but never gated. *)
val default_tolerances : (string * float) list

type violation = {
  vfield : string;
  vbase : float;
  vnew : float;
  vpct : float;
  vtol : float;
}

(** The regression gate: every gated field whose |delta| exceeds its
    tolerance. Empty means the gate passes. Tolerances are consulted
    first-match, so prepending to {!default_tolerances} overrides. *)
val gate : ?tolerances:(string * float) list -> record -> record -> violation list

(** ["gate: OK ..."] or ["gate: FAIL"] plus one line per violation
    naming the offending field. *)
val gate_human : violation list -> string

(** The trajectory table `levee history` prints. *)
val list_human : record list -> string
