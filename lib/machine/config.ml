(** Machine-level protection configuration.

    Most of a protection mechanism lives in the *instrumented IR* (the
    knobs and cookie flags the passes in [Levee_core] decide); this
    record carries the runtime switches the loader and interpreter
    need. The pass pipeline produces matched (program, config)
    pairs. *)

type isolation =
  | Segments      (* x86-32 segment-style: free isolation *)
  | Info_hiding   (* x86-64 randomized base: free, leak-proof by design *)
  | Sfi           (* software fault isolation: one mask per memory op *)

type t = {
  safe_stack : bool;        (* return addresses + proven-safe slots in safe region *)
  enforce_code_meta : bool; (* CPI/CPS: indirect calls require protected code
                               ptrs; setjmp's saved PC goes through the safe
                               store *)
  cfi_checks : bool;        (* CFI: honor the [Cfi] knob on indirect calls;
                               returns must target a call site *)
  dep : bool;               (* non-executable data *)
  aslr : bool;              (* apply the ASLR slide to the layout *)
  store_impl : Safestore.impl;
  isolation : isolation;
  check_cookies : bool;     (* honor per-function cookie flags *)
  check_libc : bool;        (* bounds-check libc memory functions (SoftBound) *)
  cps_entry_words : int;    (* safe-store entry width for footprint accounting *)
  crypt_ptrs : bool;        (* cpi-crypt: key ret slots + jmp_buf PCs in place *)
  crypt_cells : (string * bool array) list;
                            (* cpi-crypt: per-global mask of init cells the
                               loader's plaintext image must be re-encrypted
                               at (sensitive words with non-zero inits) *)
}


(** Completely unprotected baseline (DEP off, ASLR off): the paper's
    "vanilla Ubuntu 6.06" reference point for RIPE. *)
let vanilla =
  { safe_stack = false; enforce_code_meta = false;
    cfi_checks = false; dep = false; aslr = false;
    store_impl = Safestore.Simple_array; isolation = Info_hiding;
    check_cookies = false; check_libc = false; cps_entry_words = 4;
    crypt_ptrs = false; crypt_cells = [] }

(** DEP + ASLR + cookies: a modern stock system ("vanilla Ubuntu 13.10,
    all protections enabled"). *)
let hardened_baseline =
  { vanilla with dep = true; aslr = true; check_cookies = true }

let safe_stack_only =
  { vanilla with safe_stack = true; dep = true }

let cps ?(store_impl = Safestore.Simple_array) () =
  { vanilla with safe_stack = true; enforce_code_meta = true; dep = true;
                 store_impl; cps_entry_words = 1 }

let cpi ?(store_impl = Safestore.Simple_array) () =
  { vanilla with safe_stack = true; enforce_code_meta = true; dep = true;
                 store_impl }

let softbound =
  { vanilla with dep = true; check_libc = true;
                 store_impl = Safestore.Hashtable }

(** Coarse CFI, and per-signature CFI (Burow et al.'s "graded precision"
    middle point) too: the precision lives in the per-call-site target
    sets the [cfi-type] pass decides. *)
let cfi = { vanilla with cfi_checks = true; dep = true }

(** In-place pointer encryption (LIPPEN / CryptSan / PAC-style): no safe
    region and no safe stack — sensitive pointers stay in ordinary memory
    as ciphertext under a per-run key, return slots and jmp_buf PCs
    included. DEP stays on so a garbled decrypt traps instead of
    executing data. [crypt_cells] is filled in per program by the pass. *)
let cpi_crypt =
  { vanilla with dep = true; crypt_ptrs = true }

let cookies_only = { vanilla with check_cookies = true }
