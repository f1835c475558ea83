(** Small statistics helpers used by the benchmark harness to summarize
    per-benchmark overheads exactly the way the paper's Table 1 does
    (average / median / maximum over a set of benchmarks). *)

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let maximum = function
  | [] -> 0.0
  | x :: rest -> List.fold_left max x rest

(** [overhead_pct ~base ~instrumented] is the percent slowdown of
    [instrumented] relative to [base]; negative means a speedup. *)
let overhead_pct ~base ~instrumented =
  if base = 0 then 0.0
  else (float_of_int instrumented -. float_of_int base) /. float_of_int base *. 100.0

(** [pct x] formats a percentage with one decimal, e.g. ["8.4%"]. *)
let pct x = Printf.sprintf "%.1f%%" x
