(** The static race detector and safe-region soundness pass: the static
    counterpart of the machine's dynamic Eraser detector
    ({!Levee_machine.Race}) and of its safe-region isolation.

    {b Races.} Accesses are grouped by Andersen points-to object; two
    accesses race when they may execute in two concurrently live threads
    ({!Lockset.may_overlap}), at least one writes, and their must-held
    locksets share no lock. The verdict is designed to *include* every
    race the dynamic detector can observe under any scheduler seed (the
    cross-validation harness checks that empirically), while staying
    silent on the machine's happens-before concessions: joined-before
    accesses, single-instance spawn classes, a thread's own stack.

    {b Separation.} On a CPI-instrumented program, every plain
    ([Regular]) store is either *certified* — its points-to set is
    non-empty, fully modelled, and disjoint from every object reached by
    a safe-routed access, with locally decidable provenance — or
    reported unproven with a reason. Certificates are replayed by
    {!Levee_ir.Verify.check_separation}, which re-derives both halves of
    the claim from the instrumented program alone. *)

module Prog = Levee_ir.Prog
module V = Levee_ir.Verify

(** One access participating in a potential race. *)
type site = {
  st_func : string;
  st_block : int;
  st_idx : int;
  st_write : bool;
  st_locked : bool;  (** some lock is must-held (but not a common one) *)
}

type race = {
  rc_obj : string;  (** {!Pointsto.obj_to_string} of the racy object *)
  rc_storage : string;
      (** ["safe-region"] when a participating access has a sensitive
          type (the race would hit CPI-protected storage under CPI),
          else ["shared-data"] *)
  rc_sites : site list;  (** program order *)
}

(** Static race verdicts over the uninstrumented program, sorted by
    object key. Empty when the program never spawns a thread. *)
val races : Prog.t -> race list

(** One unproven plain store and why it could not be certified. *)
type unproven = {
  up_func : string;
  up_block : int;
  up_idx : int;
  up_reason : string;
}

type separation = {
  sp_plain : int;      (** plain stores examined *)
  sp_certs : V.separation_cert list;   (** certified stores *)
  sp_unproven : unproven list;
  sp_model : V.separation_model;
  sp_replay : (unit, string) result;
      (** the verdict of {!V.check_separation} on the emitted
          certificates — [Error] indicates a bug in this pass *)
}

(** Safe-region soundness over a CPI-instrumented program. *)
val separation : Prog.t -> separation
