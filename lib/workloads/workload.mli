(** Workload descriptors for the evaluation suites.

    A workload is a self-contained MiniC program that terminates with a
    deterministic checksum; the benchmark harness runs each one under
    several protection configurations and requires identical checksums
    across all of them before comparing cycle counts. *)

type lang = C | Cpp

type t = {
  name : string;
  lang : lang;              (** which SPEC language group it models *)
  description : string;
  source : string;          (** MiniC source *)
  input : int array;
  fuel : int;
}

(** Compile (memoized per workload name: every call for one name returns
    the same program, physically). *)
val compile : t -> Levee_ir.Prog.t

(** Compile, protect and run under [protection] (default vanilla). *)
val run :
  ?protection:Levee_core.Pipeline.protection -> t ->
  Levee_machine.Interp.result
