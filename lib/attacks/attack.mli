(** Attack taxonomy and payload-construction helpers, RIPE-style.

    An attack instance is a vulnerable MiniC victim plus an input payload
    built from the attacker's knowledge of the deployed binary. *)

module Prog = Levee_ir.Prog
module M = Levee_machine

type technique =
  | Direct_overflow      (** contiguous overflow from an unchecked write *)
  | Indirect_ptr         (** corrupt a data pointer, then write through it *)
  | Use_after_free       (** dangling pointer into a recycled allocation *)

type location = Stack_loc | Heap_loc | Global_loc

type target =
  | Ret_addr
  | Fptr_stack
  | Fptr_global
  | Fptr_heap
  | Struct_fptr_stack
  | Struct_fptr_heap
  | Longjmp_buf
  | Vtable_fake          (** redirect a vtable pointer to attacker data *)
  | Vtable_swap          (** redirect it at another legitimate table *)

type payload =
  | To_function          (** return-to-libc style: a function entry *)
  | To_gadget            (** ROP style: mid-function code address *)
  | To_callsite          (** call-preceded gadget (defeats coarse CFI) *)
  | Shellcode            (** injected code in a data page (needs DEP off) *)
  | To_function_leak     (** function entry, ASLR slide leaked *)

val target_name : target -> string
val payload_name : payload -> string

(** Does this target category count as a stack-based attack? *)
val is_stack_attack : target -> bool

(** Attacker's view: the deployed image, the attacker's no-slide model of
    it, and a reference image of the unprotected build (for offsets that a
    protection moved out of reach). *)
type view = {
  deployed : M.Loader.image;
  plain : M.Loader.image;
  reference : M.Loader.image;
}

(** The image absolute addresses are computed on (deployed iff leak). *)
val image_for : view -> payload -> M.Loader.image

val backdoor_entry : view -> payload -> int

(** A mid-function gadget that reaches system(); guaranteed distinct from
    the function entry. *)
val gadget_addr : view -> payload -> int

(** A call-preceded gadget address (valid coarse-CFI return target). *)
val callsite_gadget_addr : view -> payload -> int

(** Ordered allocas (register, type) of a function. *)
val allocas_of : Prog.func -> (int * Levee_ir.Ty.t) list

val nth_slot : M.Loader.image -> string -> int -> M.Loader.slot

(** Frame base of the innermost function of a direct call chain rooted at
    main, mirroring the machine's frame arithmetic. *)
val frame_base : M.Loader.image -> string list -> int

(** Like {!frame_base} for a chain rooted at spawned thread [tid]'s entry
    function (its frames live in the thread's own stack window). *)
val thread_frame_base : M.Loader.image -> tid:int -> string list -> int

(** The k-th alloca slot as the attacker sees it (deployed layout, falling
    back to the unprotected reference when the slot moved to the safe
    stack). *)
val slot_for : view -> string -> int -> M.Loader.slot

val global_of : view -> payload -> string -> int
val global_distance : view -> from:string -> to_:string -> int

(** [overflow_payload ~dist v] = [dist] filler words then [v]. *)
val overflow_payload : ?fill:int -> dist:int -> int -> int array
