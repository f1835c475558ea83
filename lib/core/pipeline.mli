(** The protection pipeline: the analogue of Levee's compiler-driver flags
    (-fcpi, -fcps, -fstack-protector-safe), plus the baselines the paper's
    evaluation compares against. *)

module Prog = Levee_ir.Prog
module Config = Levee_machine.Config
module Safestore = Levee_machine.Safestore

type protection =
  | Vanilla           (** no protection, DEP and ASLR off *)
  | Hardened          (** DEP + ASLR + stack cookies: a stock modern system *)
  | Cookies
  | Safe_stack        (** the safe stack alone (-fstack-protector-safe) *)
  | Cfi               (** coarse-grained CFI baseline (any function entry) *)
  | Cfi_type          (** per-signature CFI sets (Burow et al. middle point) *)
  | Cps               (** code-pointer separation (-fcps) *)
  | Cpi               (** code-pointer integrity (-fcpi) *)
  | Cpi_debug         (** CPI debug mode: both copies kept and compared *)
  | Cpi_crypt         (** in-place pointer encryption, no safe region *)
  | Softbound         (** full spatial memory safety baseline *)

val protection_name : protection -> string
val all_protections : protection list

type built = {
  protection : protection;
  prog : Prog.t;        (** instrumented clone of the input module *)
  config : Config.t;    (** the matching machine configuration *)
  stats : Stats.t;      (** Table-2-style instrumentation statistics *)
}

(** [build ?store_impl ?isolation protection prog] instruments a deep copy
    of [prog] and verifies the result. Structs the programmer marked
    [sensitive] (Section 3.2.1's struct-ucred case) are read from
    [prog.tenv].

    @param store_impl safe-pointer-store organisation (default array)
    @param isolation safe-region isolation mechanism (default info hiding)
    @param refine enable the points-to sensitivity refinement inside the
           CPS, CPI and cpi-crypt passes (default [true]); the demotion
           count is reported in [stats.mem_ops_demoted]
    @param elide run redundant-check elision over cpi and cpi-debug
           programs (default [true]); every elision is independently
           re-justified by [Verify.check_elision] and counted in
           [stats.checks_elided]
    @raise Failure if the instrumented IR fails verification (a pass bug) *)
val build :
  ?store_impl:Safestore.impl ->
  ?isolation:Config.isolation ->
  ?refine:bool ->
  ?elide:bool ->
  protection -> Prog.t -> built
