(** Machine-level protection configuration.

    Most of a protection mechanism lives in the instrumented IR; this
    record carries the runtime switches the loader and interpreter need.
    The pass pipeline ([Levee_core.Pipeline]) produces matched
    (program, config) pairs — construct configs through it unless you are
    testing the machine itself. *)

type isolation =
  | Segments      (** x86-32 segment-style isolation: free *)
  | Info_hiding   (** x86-64 randomized base: free, leak-proof by design *)
  | Sfi           (** software fault isolation: one mask per store *)

type t = {
  name : string;
  safe_stack : bool;        (** return addresses + safe slots in safe region *)
  enforce_code_meta : bool; (** CPI/CPS: indirect calls need protected
                                pointers; setjmp's saved PC goes through the
                                safe store *)
  cfi_checks : bool;        (** CFI: indirect calls honor [cfi_checked];
                                returns must target a call site *)
  dep : bool;               (** non-executable data *)
  aslr : bool;
  store_impl : Safestore.impl;
  isolation : isolation;
  check_cookies : bool;
  check_libc : bool;        (** bounds-check libc memory functions (SoftBound) *)
  cps_entry_words : int;    (** store entry width for footprint accounting *)
  crypt_ptrs : bool;        (** cpi-crypt: key ret slots + jmp_buf PCs in place *)
  crypt_cells : (string * bool array) list;
                            (** cpi-crypt: per-global mask of initializer cells
                                to re-encrypt after the plaintext image load *)
}

(** Completely unprotected baseline (DEP and ASLR off). *)
val vanilla : t

(** DEP + ASLR + stack cookies: a stock modern system. *)
val hardened_baseline : t

val safe_stack_only : t
val cps : ?store_impl:Safestore.impl -> unit -> t
val cpi : ?store_impl:Safestore.impl -> unit -> t
val softbound : t
val cfi : t

(** Per-signature CFI: same runtime switches as [cfi] — the precision is
    in the per-call-site target sets the cfi-type pass bakes into the IR. *)
val cfi_type : t

(** In-place pointer encryption under a per-run key: no safe region, no
    safe stack. [crypt_cells] is filled in per program by the pass. *)
val cpi_crypt : t

val cookies_only : t
