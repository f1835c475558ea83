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
  prog : Prog.t;        (** the build: the input's instructions, its knobs *)
  config : Config.t;    (** the matching machine configuration *)
  stats : Stats.t;      (** Table-2-style instrumentation statistics *)
}

(** [build ?store_impl ?isolation protection prog] instruments a build
    of [prog] ({!Prog.build}): the passes decide its knobs and cookies
    and never write [prog], so one program serves every protection and
    stays as [Lower.compile] verified it. Structs the programmer marked
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
    @param points_to a points-to solve of [prog] to share between builds
           (default: solve [prog] here). It is called only by the
           protections that read the solve — cps, cfi-type, and cpi,
           cpi-debug and cpi-crypt with [refine] — and at most once per
           build. Pass the strict solution only: a build never shares
           its plan or anything lazy.
    @raise Invalid_argument if [points_to] is called and returns the
           solve of another program (checked physically against [prog]),
           or if a pass decides a knob that does not fit its instruction
           (a pass bug)
    @raise Failure if [Verify.check_elision] rejects an elision (a pass
           bug) *)
val build :
  ?store_impl:Safestore.impl ->
  ?isolation:Config.isolation ->
  ?refine:bool ->
  ?elide:bool ->
  ?points_to:(unit -> Levee_analysis.Pointsto.t) ->
  protection -> Prog.t -> built
