(** Structured lint findings over MiniC programs: the back end of the
    [levee analyze] subcommand. Combines the static analyses into one
    deterministic report — unsafe casts, Castflow-forced loads, dead
    instrumentation (accesses the points-to refinement proves data-only),
    unreachable blocks, never-code indirect calls, and per-function
    Table-2-style instrumentation statistics. *)

type severity = Info | Warning | Error

val severity_name : severity -> string

type finding = {
  severity : severity;
  kind : string;  (** stable identifier, e.g. ["unsafe-cast"] *)
  func : string;  (** [""] for whole-program findings *)
  block : int;    (** [-1] when not tied to a position *)
  idx : int;
  msg : string;
}

type func_stats = {
  fs_name : string;
  fs_mem_ops : int;
  fs_sensitive : int;     (** type-rule sensitive accesses (Fig. 7) *)
  fs_forced : int;        (** loads forced by the unsafe-cast dataflow *)
  fs_char_demoted : int;  (** accesses demoted by the char* heuristic *)
  fs_demotable : int;     (** proven data-only by the points-to refinement *)
  fs_indirect_calls : int;
}

(** Aggregate of the safe-region separation pass, carried by the report
    when [levee analyze --races] ran it (counts from
    {!Racecheck.separation}; the certificate replay verdict is folded
    into the findings). *)
type sep_stats = {
  ss_plain : int;      (** plain stores examined *)
  ss_certified : int;  (** separation certificates emitted *)
  ss_unproven : int;
  ss_opaque : int;     (** safe accesses with opaque provenance *)
  ss_replay_ok : bool; (** [Verify.check_separation] accepted the certs *)
}

type report = {
  source : string;
  findings : finding list;  (** sorted by function, block, index, kind *)
  funcs : func_stats list;  (** program order *)
  races : Racecheck.race list option;  (** static race verdicts, when run *)
  sep : sep_stats option;
}

val count : severity -> report -> int

(** [Error]-severity findings indicate internal inconsistencies (compiler
    bugs), never user errors; [levee analyze] exits non-zero on them. *)
val has_errors : report -> bool

(** Lint the (uninstrumented) program; [name] labels the report.
    Programmer-marked sensitive structs are read from the program's type
    environment. Deterministic: equal inputs produce byte-equal
    reports. *)
val analyze : ?name:string -> Levee_ir.Prog.t -> report

(** Fold static race verdicts ({!Racecheck.races}) into a report: one
    ["potential-race"] warning per racy object, plus the [races] section
    of the JSON document. Findings are re-sorted canonically. *)
val add_races : report -> Racecheck.race list -> report

(** Fold the safe-region separation pass ({!Racecheck.separation}, run on
    the CPI-instrumented program) into a report: one
    ["unproven-separation"] info per unproven store, a
    ["separation-replay"] error if the certificate replay failed, and
    the [separation] JSON section. Findings are re-sorted canonically. *)
val add_separation : report -> Racecheck.separation -> report

(** Human-readable rendering. [elided]/[demoted] append the CPI pipeline's
    authoritative elision/demotion counts when the caller has built the
    instrumented program. *)
val to_human : ?elided:int -> ?demoted:int -> report -> string

(** The ["levee-analyze/2"] JSON document (see README). Same optional
    pipeline counts as [to_human]. [races] / [separation] sections appear
    exactly when the corresponding pass ran. *)
val to_json : ?elided:int -> ?demoted:int -> report -> string

val schema_id : string

(** One run-store record (schema [levee-analyze/2], kind ["analyze"],
    [config = name], [wall_us = 0]): finding counts plus, when the race
    and separation passes ran, their verdict counts. All fields are
    deterministic, so `levee history --gate` holds them at 0%%
    tolerance. *)
val to_record :
  ?commit:string -> ?name:string -> report -> Levee_support.Runstore.record
