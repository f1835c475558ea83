(** Deterministic pseudo-random number generation.

    All randomized components of the reproduction (workload inputs, attack
    payload choices, property-test corpora seeds) draw from this SplitMix64
    generator so every run of the benchmarks and tests is bit-for-bit
    reproducible. We deliberately avoid [Stdlib.Random] global state. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64's split: draw one output from the parent and use it as the
   child's state, re-mixed with the golden-gamma constant so the child
   stream is decorrelated from the parent's subsequent outputs. The parent
   advances by exactly one step, so split streams are fully determined by
   the parent seed and the order of splits. *)
let split t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  { state = logxor z (shift_right_logical z 31) }

(* SplitMix64 step: the standard constants from Steele et al. (2014). *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (next_int64 t) land max_int in
  v mod bound

(** [range t lo hi] is uniform in [lo, hi] inclusive. *)
let range t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let bool t = int t 2 = 0

(** [pick t arr] selects a uniformly random element of a non-empty array. *)
let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
