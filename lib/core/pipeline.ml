(** The protection pipeline: the analogue of Levee's compiler driver flags
    (-fcpi, -fcps, -fstack-protector-safe), plus the baselines the
    evaluation compares against. [build] clones the input module,
    runs the passes for the requested protection, verifies the result, and
    returns it together with the matching machine configuration and the
    static instrumentation statistics. *)

module Prog = Levee_ir.Prog
module Config = Levee_machine.Config
module Safestore = Levee_machine.Safestore
module Pointsto = Levee_analysis.Pointsto

type protection =
  | Vanilla           (* no protection, DEP and ASLR off *)
  | Hardened          (* DEP + ASLR + stack cookies: a stock modern system *)
  | Cookies           (* stack cookies only *)
  | Safe_stack        (* the safe stack alone (-fstack-protector-safe) *)
  | Cfi               (* coarse-grained CFI baseline (any function entry) *)
  | Cfi_type          (* per-signature CFI sets (Burow et al. middle point) *)
  | Cps               (* code-pointer separation (-fcps) *)
  | Cpi               (* code-pointer integrity (-fcpi) *)
  | Cpi_debug         (* CPI in debug mode: both copies kept and compared *)
  | Cpi_crypt         (* in-place pointer encryption, no safe region *)
  | Softbound         (* full spatial memory safety baseline *)

let protection_name = function
  | Vanilla -> "vanilla"
  | Hardened -> "dep+aslr+cookies"
  | Cookies -> "cookies"
  | Safe_stack -> "safestack"
  | Cfi -> "cfi"
  | Cfi_type -> "cfi-type"
  | Cps -> "cps"
  | Cpi -> "cpi"
  | Cpi_debug -> "cpi-debug"
  | Cpi_crypt -> "cpi-crypt"
  | Softbound -> "softbound"

(* New spectrum members appended so every positional expectation over the
   established prefix stays valid. *)
let all_protections =
  [ Vanilla; Hardened; Cookies; Safe_stack; Cfi; Cps; Cpi; Cpi_debug; Softbound;
    Cfi_type; Cpi_crypt ]

type built = {
  protection : protection;
  prog : Prog.t;
  config : Config.t;
  stats : Stats.t;
}

(** [build ?store_impl ?isolation ?refine ?elide protection prog]
    instruments a copy of [prog]. Programmer-marked sensitive structs
    (Section 3.2.1) travel in [prog.tenv]; [store_impl] selects the
    safe-pointer-store organisation; [isolation] the safe-region isolation
    mechanism. [refine] (default on) enables the points-to sensitivity
    refinement inside the CPS, CPI and cpi-crypt passes; [elide] (default
    on) runs the redundant-check elision pass over cpi and cpi-debug
    programs, with every elision independently re-justified by
    [Verify.check_elision]. [points_to] hands in a shared points-to solve
    of [src]; it is called only by the protections that read the solve. *)
let build ?(store_impl = Safestore.Simple_array)
    ?(isolation = Config.Info_hiding) ?(refine = true) ?(elide = true)
    ?points_to protection (src : Prog.t) : built =
  let prog = Prog.clone src in
  (* The passes before the solve is read only set [Alloca.slot] and
     [cfi_checked], which the analysis never reads, so a solve of [src]
     answers for [prog]. *)
  let points_to () =
    match points_to with
    | None -> Pointsto.analyze src
    | Some solve ->
      let pt = solve () in
      if Pointsto.source pt != src then
        invalid_arg "Pipeline.build: points-to solve of another program";
      pt
  in
  (* One use-def per function for the builds that analyse: the safe-stack
     analysis, the char* heuristic and the plan all read these. The
     safe-stack pass only sets [Alloca.slot], which they never look at. *)
  let usedef () = Levee_analysis.Usedef.of_prog prog in
  let demoted = ref 0 in
  let config =
    match protection with
    | Vanilla -> Config.vanilla
    | Hardened ->
      Cookie_pass.run prog;
      Config.hardened_baseline
    | Cookies ->
      Cookie_pass.run prog;
      Config.cookies_only
    | Safe_stack ->
      Safestack_pass.run ~usedef:(usedef ()) prog;
      Config.safe_stack_only
    | Cfi ->
      Cfi_pass.run prog;
      Config.cfi
    | Cfi_type ->
      ignore (Cfi_type_pass.run (points_to ()) prog);
      Config.cfi_type
    | Cpi_crypt ->
      let d, crypt_cells =
        Crypt_pass.run ~refine ~points_to ~usedef:(usedef ()) prog
      in
      demoted := d;
      { Config.cpi_crypt with Config.crypt_cells }
    | Cps ->
      let usedef = usedef () in
      Safestack_pass.run ~usedef prog;
      demoted := Cps_pass.run ~refine ~points_to ~usedef prog;
      Config.cps ~store_impl ()
    | Cpi ->
      let usedef = usedef () in
      Safestack_pass.run ~usedef prog;
      demoted := Cpi_pass.run ~refine ~points_to ~usedef prog;
      Config.cpi ~store_impl ()
    | Cpi_debug ->
      let usedef = usedef () in
      Safestack_pass.run ~usedef prog;
      demoted := Cpi_pass.run ~debug:true ~refine ~points_to ~usedef prog;
      { (Config.cpi ~store_impl ()) with Config.name = "cpi-debug" }
    | Softbound ->
      Softbound_pass.run prog;
      { Config.softbound with Config.store_impl = store_impl }
  in
  let config = { config with Config.isolation } in
  (match Levee_ir.Verify.program_result prog with
   | Ok () -> ()
   | Error e ->
     failwith (Printf.sprintf "pipeline(%s): invalid IR after instrumentation: %s"
                 (protection_name protection) e));
  let certs =
    match protection with
    | (Cpi | Cpi_debug) when elide -> Checkelim_pass.run prog
    | _ -> []
  in
  if certs <> [] then begin
    (match Levee_ir.Verify.check_elision prog certs with
     | Ok () -> ()
     | Error e ->
       failwith (Printf.sprintf "pipeline(%s): unjustified check elision: %s"
                   (protection_name protection) e));
    (* Elision only clears [checked] flags, but re-verify anyway: the
       structural invariants must survive every pass. *)
    match Levee_ir.Verify.program_result prog with
    | Ok () -> ()
    | Error e ->
      failwith (Printf.sprintf "pipeline(%s): invalid IR after check elision: %s"
                  (protection_name protection) e)
  end;
  { protection; prog; config;
    stats =
      { (Stats.collect prog) with
        Stats.checks_elided = List.length certs;
        mem_ops_demoted = !demoted } }
