(** Deterministic cycle cost model.

    Wall-clock overheads in the paper come from extra memory accesses and
    checks inserted by the instrumentation; this model charges those costs
    explicitly so that overhead measurements are exact and reproducible.
    Base costs approximate a simple in-order core; instrumentation costs
    follow the structure of Levee's runtime: a safe-store access costs one
    table lookup (organisation-dependent) plus metadata movement, a bounds
    check costs a couple of ALU ops, etc. The absolute numbers are not
    calibrated to a Xeon E5-2697 — the *relative* behaviour (which
    mechanism is cheaper, which workloads are outliers) is what the
    benchmarks compare against the paper. *)

type t = {
  mutable cycles : int;
  mutable mem_ops : int;
  mutable instrumented_mem_ops : int;
  mutable ctx_switches : int;     (* scheduler context switches *)
}

let create () =
  { cycles = 0; mem_ops = 0; instrumented_mem_ops = 0; ctx_switches = 0 }

let[@inline] add t n = t.cycles <- t.cycles + n

(* ---- Base instruction costs ---- *)

let alu = 1
let load_base = 2
let store_base = 2
let branch = 1
let call_base = 5
let ret_base = 3
let intrin_setup = 5
let per_word_libc = 1

(* ---- Instrumentation costs ---- *)

(* Bounds-check: two comparisons plus a fused branch. *)
let check_cost = 2

(* Metadata move accompanying a safe-store access (bounds + id). *)
let meta_move = 1

(* Per-call cost of setting up a separate unsafe stack frame. *)
let unsafe_frame_cost = 4

(* Stack cookie write + check per protected call. *)
let cookie_cost = 3

(* CFI set-membership test on an indirect transfer. *)
let cfi_cost = 3

(* Extra cost of the per-signature set check in cfi-type: the target must
   be located in the call site's sorted set, not just the global bitmap. *)
let cfi_set_cost = 1

(* Keyed encrypt/decrypt folded into a sensitive access (cpi-crypt):
   PAC-style pointer authentication adds a few cycles of ALU latency per
   protected load/store, with no extra memory traffic. *)
let crypt_cost = 2

(* SFI isolation: one mask per memory operation. *)
let sfi_mask = 1

(* Locality penalty: a frame whose hot (register-spill) area exceeds this
   many words stops fitting in the first-level stack cache lines; moving
   large buffers to the unsafe stack avoids the penalty — this reproduces
   the paper's observation that the safe stack *speeds up* some programs
   (namd improved by 4.2%). The interpreter charges the penalty on a
   deterministic 1-in-8 sample of stack accesses made from oversized
   frames, approximating a cache-miss rate. *)
let hot_frame_threshold = 24
let locality_penalty = 1

(* ---- Threading costs ---- *)

(* A context switch: save/restore of the register file plus the stack- and
   safe-stack-pointer swap the per-thread stack pairs require. Charged only
   when the scheduler actually moves to a different thread, so
   single-threaded runs never pay it. *)
let ctx_switch = 12

(* thread_spawn: carving the regular+safe stack windows and the first
   frame of the new thread (the frame itself is charged as a call). *)
let spawn_cost = 40

(* thread_join bookkeeping (successful reap or wake-up recheck). *)
let join_cost = 4

(* Uncontended mutex acquire/release: one atomic RMW. *)
let mutex_cost = 4

(* atomic_add: an atomic RMW on shared memory (load+store are charged
   separately as one memory round trip). *)
let atomic_cost = 6

(* Per-word cost of the safe-store-aware memcpy/memset variants: each word
   must probe the safe pointer store in addition to the copy itself. *)
let cpi_memop_per_word store_impl = Safestore.lookup_cost store_impl

let[@inline] charge_mem t ~instrumented n =
  t.mem_ops <- t.mem_ops + 1;
  if instrumented then t.instrumented_mem_ops <- t.instrumented_mem_ops + 1;
  add t n

let[@inline] charge_check t = add t check_cost

let[@inline] charge_safe_store t impl =
  add t (Safestore.lookup_cost impl + meta_move)
