(** The char* string heuristic (paper Section 3.2.1).

    char* is a universal pointer type and hence sensitive, but most char*
    in C programs are plain strings; the heuristic assumes char* pointers
    that are passed to the libc string functions or assigned string
    constants are not universal. The decision is made per pointer *site*
    (the alloca or global storing the char* value): all accesses of a
    demoted pointer are demoted together, or none are — anything else
    would desynchronize the safe store and the regular copy. Heuristic
    misses only leave extra instrumentation (or cause false violation
    reports, as the paper notes); they never expose a code pointer. *)

(** Program-level demotion map: per function (by name), the positions of
    char* loads/stores treated as non-sensitive, judged on the use-defs
    [usedef] hands out. *)
val demoted :
  usedef:(string -> Usedef.t) -> Levee_ir.Prog.t -> string -> Usedef.marks
