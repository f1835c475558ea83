(** Executable operational semantics of Appendix A.

    The evaluator implements the CPI rules literally: a runtime environment
    E = (S, Mu, Ms) with regular and safe memories over the same addresses,
    safe values carrying bounds v(b,e), and the exact rule-by-rule
    behaviour for sensitive and regular types, including the
    universal-pointer fallback ("none" marker) rules and the aborts on
    accessing sensitive values through regular lvalues. *)

type value =
  | VSafe of int * int * int    (** v(b,e): value with bounds *)
  | VReg of int                 (** regular value *)

type outcome = Done | Abort of string | Out_of_memory

exception Stop of outcome

type run = {
  outcome : outcome;
  checked_derefs : int;              (** sensitive accesses performed *)
  oob_slipped : int;                 (** completed sensitive accesses found
                                         outside their based-on object: the
                                         safety theorem says this is 0 *)
}

(** Run [p] under a sensitivity criterion.

    The default criterion is Fig. 7's; passing [fun _ -> true] makes every
    type sensitive, which degenerates CPI into full memory safety
    (SoftBound) — the tests exploit this to check the paper's claim that
    the CPI rules subsume the SoftBound rules on sensitive values. *)
val run : ?sensitive:(Syntax.pty -> bool) -> Syntax.program -> run
