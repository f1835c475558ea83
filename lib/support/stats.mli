(** Statistics helpers used by the benchmark harness to summarize
    per-benchmark overheads the way the paper's Table 1 does. *)

val mean : float list -> float
val median : float list -> float
val maximum : float list -> float

(** Percent slowdown of [instrumented] relative to [base]; negative means
    a speedup. *)
val overhead_pct : base:int -> instrumented:int -> float

(** Format a percentage with one decimal, e.g. ["8.4%"]. *)
val pct : float -> string
