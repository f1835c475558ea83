(** The parallel benchmark execution engine.

    Owns a {!Levee_support.Pool} of worker domains, a pool-safe memo of
    (workload, protection, store) cell results, and an optional
    {!Levee_support.Journal} that every fresh execution is recorded to.
    The cost model is deterministic, so any [jobs] setting produces the
    same results and the same journal (modulo wall-clock fields); cells
    are journalled in canonical submission order, not completion order.

    There is no per-cell timeout and no retry: every cell is bounded by
    its fuel and is deterministic, so a retry would repeat the same
    failure and a cell that never returns is a bug for the tests to
    catch.

    Within one {!prefetch}, the cells of a workload share one points-to
    solve ({!Levee_core.Pipeline.build}'s [points_to]): the first cell
    whose protection reads it computes it, and it is dropped when the
    workload's last pending cell of the batch finishes, whether that cell
    ran or raised. A solve lives inside one engine's batch only: nothing
    carries it to a later batch or another engine, so every benchmark
    round pays for its own solves. *)

module P = Levee_core.Pipeline
module W = Levee_workloads
module M = Levee_machine

type cell = {
  workload : W.Workload.t;
  protection : P.protection;
  store_impl : M.Safestore.impl;
}

val cell :
  ?store_impl:M.Safestore.impl -> W.Workload.t -> P.protection -> cell

(** What a journal entry reports: a finished run with its build's
    instrumentation statistics, or a cell that produced no run (the
    outcome text; every counter is 0). *)
type measured =
  | Ran of Levee_core.Stats.t * M.Interp.result
  | Not_run of string

(** The one {!Levee_support.Journal.entry} constructor every harness
    uses: status 0 iff [ok]. *)
val entry :
  workload:string -> protection:P.protection ->
  store_impl:M.Safestore.impl -> ok:bool -> wall_us:int -> measured ->
  Levee_support.Journal.entry

(** The run ended in [Exit 0]. *)
val exited : M.Interp.result -> bool

type t

(** [create ~jobs ()] builds an engine around a [jobs]-wide pool.
    [fuel_cap], if given, clamps every workload's instruction budget (the
    tiny-fuel CI smoke path). *)
val create : ?fuel_cap:int -> jobs:int -> unit -> t

val jobs : t -> int
val pool : t -> Levee_support.Pool.t

(** Route subsequent executions' records to [j] (one journal per bench
    target). *)
val set_journal : t -> Levee_support.Journal.t option -> unit

(** [prefetch t cells] executes every not-yet-memoized cell through the
    pool and memoizes + journals the results in submission order. With
    [jobs = 1] the cells run inline, in order, in the calling domain. The
    cells of one workload share one points-to solve (see above); a build
    from a shared solve equals one from its own. *)
val prefetch : t -> cell list -> unit

(** Memoized lookup; computes (and journals) inline on a miss, with a
    solve of its own. *)
val run_workload :
  t -> ?store_impl:M.Safestore.impl -> W.Workload.t -> P.protection ->
  M.Interp.result

(** Percent cycle overhead of [protection] over vanilla for [w]. *)
val overhead : t -> W.Workload.t -> P.protection -> float

(** Workloads whose *vanilla* run did not end in [Exit 0], in the order
    they were discovered. A non-empty list means the harness itself is
    broken and the process should exit non-zero. *)
val vanilla_failures : t -> (string * M.Trap.outcome) list

(** Cells whose harness task raised (a compile or build bug, not a
    simulated trap), as [("workload/protection",
    "harness-exception(<exn>)")] pairs in discovery order, one per
    execution. These are also journalled with status 1, so the journal
    still covers the full matrix. *)
val harness_failures : t -> (string * string) list

(** Shut the pool down (joins the worker domains). *)
val shutdown : t -> unit
