(** Deterministic fault-injection campaigns over the defense matrix.

    A campaign sweeps a set of {!Levee_attacks.Faultplan} corruption
    plans over subject programs × (protection, safe-store organisation)
    configurations, classifies every faulted run against its un-faulted
    baseline, and checks the paper's guarantee empirically:

    - CPI ⇒ no run of an attacker-model plan (regular-region reads and
      writes only, no isolation bypass) ends [Hijacked];
    - vanilla is hijackable by the very same plans (the campaign is a
      real measurement, not a vacuous pass);
    - a plan that only tampers with the safe region through the plain
      access path ends in [Isolation_violation] in every configuration.

    The campaign also sweeps the graded protection spectrum (coarse CFI,
    per-signature cfi-type, keyed in-place cpi-crypt) and checks the
    ordering empirically: coarse CFI is hijackable by cross-signature
    redirects that cfi-type refuses, a same-signature swap pierces
    cfi-type but not the pointer-centric backends, and cpi-crypt shrugs
    off metadata-drop plans entirely (it keeps no safe store to drop).

    Everything — plan generation, the scheduler, the cost model, the
    report — is deterministic, so the [levee-faults/3] JSON report is
    byte-identical across runs and across [jobs] settings (it carries
    no wall-clock or parallelism fields). A campaign compiles each
    subject once and shares the program, read-only, across the pool. *)

module P = Levee_core.Pipeline
module M = Levee_machine
module A = Levee_attacks

(** A program under test: self-contained MiniC source whose benign run
    exits 0, with per-subject targeted plans (resolved against its
    layout) on top of the campaign's shared random plans. *)
type subject = {
  sname : string;
  source : string;
  input : int array;
  fuel : int;
  splans : A.Faultplan.t list;
  sseeds : int list;
      (** scheduler seeds swept for this subject; single-threaded
          subjects use [[0]] (the seed is inert for them) *)
}

type campaign = {
  cname : string;
  seed : int;
  subjects : subject list;
  configs : (P.protection * M.Safestore.impl) list;
}

(** The built-in smoke campaign: two code-pointer-dispatch subjects,
    a two-worker concurrent subject with cross-thread plans (another
    thread's return slot, safe stack and regular stack, swept under two
    scheduler seeds), and a function-pointer zoo with same-signature and
    cross-signature hijack plans separating the graded CFI family;
    targeted ret/fptr/global/desync/tamper plans plus seeded random
    plans, swept over vanilla, safe stack, CPS and CPI × all three
    safe-store organisations, plus the protection spectrum (coarse CFI,
    cfi-type, cpi-crypt). *)
val smoke : ?seed:int -> unit -> campaign

(** One faulted execution, classified. [r_class] is one of
    ["hijacked"], ["trapped"], ["crash"], ["fuel-exhausted"],
    ["masked"] (exit, observably identical to the un-faulted baseline)
    or ["benign"] (exit, but output/checksum/exit code diverged). *)
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
  r_model : bool;   (** plan stays within the software attacker model *)
  r_tamper : bool;  (** plan is a pure safe-region tamper *)
  r_meta : bool;    (** plan is made only of metadata attacks
                        ([Desync]/[Drop_meta]) *)
}

(** The [r_class] of a faulted run against its un-faulted [baseline]. *)
val classify : baseline:M.Interp.result -> M.Interp.result -> string

(** The vanilla reference image fault plans resolve sites against, and
    the image deployed under the protection (the same one for vanilla). *)
val images :
  store:M.Safestore.impl -> P.protection -> Levee_ir.Prog.t ->
  M.Loader.image * M.Loader.image

type report

val runs : report -> run list

(** Execute the campaign on a [jobs]-wide pool. Each subject is compiled
    once, on the calling domain, and its program is shared read-only by
    the pool tasks of its configurations (each builds and loads its own
    images from it). Results are integrated in submission order, so any
    [jobs] yields the same report. *)
val run : ?jobs:int -> campaign -> report

(** The nine invariants, in order: CPI-never-hijacked (attacker-model
    plans), vanilla-hijack-witnessed, safe-tamper-traps-as-isolation,
    vanilla-hijack-witnessed-under-every-sched-seed, then the
    protection-spectrum class — cpi-crypt masks pure metadata-drop plans
    (no safe region to drop), CPI's metadata dependence is witnessed,
    coarse CFI admits a hijack cfi-type refuses, the same-signature swap
    pierces cfi-type but not cpi/cpi-crypt (Burow et al. ordering), and
    cpi-crypt is never hijacked under any plan. *)
val invariants : report -> (string * bool) list

val invariants_ok : report -> bool

(** The [levee-faults/3] JSON document (schema in EXPERIMENTS.md). *)
val to_json : report -> string

(** Human-readable summary table + invariant verdicts. *)
val to_human : report -> string

(** One aggregate run-store record (schema [levee-faults/3], kind
    ["faults"], keyed by the campaign seed, [wall_us = 0]): per-class
    counts, per-backend hijack counts over the protection spectrum
    (vanilla/cfi/cfi-type/cpi/cpi-crypt), total simulated cycles, and
    the invariant verdict. The bytes are deterministic across runs and
    [jobs] widths. *)
val to_record : ?commit:string -> report -> Levee_support.Runstore.record
