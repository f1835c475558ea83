(** Structured run journal for the benchmark harness.

    Every (workload x protection x store) execution is recorded as one
    [entry]; a whole bench target serializes to [BENCH_<target>.json] so
    the performance trajectory can be tracked machine-readably across
    commits. The cost model is deterministic, so two journals for the same
    target are equal modulo the [wall_us] field whatever [--jobs] was. *)

type entry = {
  workload : string;           (** workload name, e.g. ["400.perlbench"] *)
  protection : string;         (** [Pipeline.protection_name] *)
  store : string;              (** [Safestore.impl_name] *)
  outcome : string;            (** [Trap.outcome_to_string] *)
  status : int;                (** 0 iff the run ended in [Exit 0] *)
  cycles : int;
  instrs : int;
  mem_ops : int;
  instrumented_mem_ops : int;
  store_accesses : int;        (** safe-pointer-store get/set/clear ops *)
  store_footprint : int;
  heap_peak : int;
  checksum : int;
  checks_elided : int;         (** checks removed by static elision *)
  mem_ops_demoted : int;       (** accesses demoted by points-to refinement *)
  threads : int;               (** total threads, including main (>= 1) *)
  ctx_switches : int;          (** deterministic-scheduler context switches *)
  races : int;                 (** lockset-detector race reports *)
  wall_us : int;               (** wall-clock microseconds for this cell *)
}

type t

val create : ?jobs:int -> target:string -> unit -> t
val target : t -> string
val jobs : t -> int

(** Append an entry; thread-safe. *)
val record : t -> entry -> unit

(** Entries in the order they were recorded. *)
val entries : t -> entry list

(** Entries whose [status] is non-zero. *)
val failures : t -> entry list

(** Serialize to the [BENCH_*.json] schema (see EXPERIMENTS.md). *)
val to_json : t -> string

(** Parse [to_json] output back. @raise Failure on malformed input. *)
val of_json : string -> t

(** Structural equality; [ignore_wall] (default true) zeroes the
    nondeterministic [wall_us] fields before comparing. *)
val equal : ?ignore_wall:bool -> t -> t -> bool

(** One-line human summary: entry count, failures, total cycles. *)
val summary_line : t -> string

(** Write [BENCH_<target>.json] in the current directory and return the
    path. *)
val write : t -> string

(** Project the journal to one aggregate {!Runstore.record} (sums over
    the entries; [config] is the journal's target) for appending to the
    run-store. [wall_us] is the only nondeterministic field; deterministic
    producers (e.g. `levee conc`) record [wall_us = 0] in every entry, so
    their record's bytes are a pure function of the run. *)
val to_record :
  ?kind:string ->
  ?commit:string ->
  ?seed:int ->
  t ->
  Runstore.record
