(** Attack taxonomy and payload-construction helpers, RIPE-style [49].

    An attack instance is a vulnerable MiniC victim plus an input payload
    built from the attacker's knowledge of the deployed binary. The
    dimensions follow RIPE: overflow technique, buffer location, corrupted
    code-pointer target, and payload destination. *)

module Prog = Levee_ir.Prog
module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module M = Levee_machine

type technique =
  | Direct_overflow      (* contiguous overflow from an unchecked write *)
  | Indirect_ptr         (* corrupt a data pointer, then write through it *)
  | Use_after_free       (* dangling pointer into a recycled allocation *)

type location = Stack_loc | Heap_loc | Global_loc

type target =
  | Ret_addr
  | Fptr_stack
  | Fptr_global
  | Fptr_heap
  | Struct_fptr_stack
  | Struct_fptr_heap
  | Longjmp_buf
  | Vtable_fake          (* redirect a vtable pointer to attacker data *)
  | Vtable_swap          (* redirect a vtable pointer to another legit table *)

type payload =
  | To_function          (* return-to-libc style: a function entry *)
  | To_gadget            (* ROP style: mid-function code address *)
  | To_callsite          (* call-preceded gadget (defeats coarse CFI) *)
  | Shellcode            (* injected code in a data page (needs DEP off) *)
  | To_function_leak     (* function entry, ASLR slide known via info leak *)

let target_name = function
  | Ret_addr -> "ret-addr"
  | Fptr_stack -> "fptr-stack"
  | Fptr_global -> "fptr-global"
  | Fptr_heap -> "fptr-heap"
  | Struct_fptr_stack -> "struct-fptr-stack"
  | Struct_fptr_heap -> "struct-fptr-heap"
  | Longjmp_buf -> "longjmp-buf"
  | Vtable_fake -> "vtable-fake"
  | Vtable_swap -> "vtable-swap"

let payload_name = function
  | To_function -> "ret2libc"
  | To_gadget -> "rop-gadget"
  | To_callsite -> "callsite-gadget"
  | Shellcode -> "shellcode"
  | To_function_leak -> "ret2libc+leak"

(** Does this target category count as a stack-based attack? (used to
    check the paper's claim that the safe stack alone stops all
    stack-based RIPE attacks) *)
let is_stack_attack = function
  | Ret_addr | Fptr_stack | Struct_fptr_stack -> true
  | Fptr_global | Fptr_heap | Struct_fptr_heap | Longjmp_buf | Vtable_fake
  | Vtable_swap -> false

(* ---------- Payload address helpers ---------- *)

(** Attacker's view: the deployed image (real layout, with ASLR slide),
    the attacker's model of it (same binary, no slide), and a reference
    image of the unprotected build (used when a protection moved the target
    out of the regular frame entirely — the attacker's offsets go stale).
    Absent an information leak, absolute addresses come from the plain
    image; relative distances are slide-invariant and come from the
    deployed binary. *)
type view = {
  deployed : M.Loader.image;
  plain : M.Loader.image;
  reference : M.Loader.image;
}

let image_for view = function
  | To_function_leak -> view.deployed
  | To_function | To_gadget | To_callsite | Shellcode -> view.plain

(** Code address of the backdoor function's entry. *)
let backdoor_entry view payload =
  M.Loader.entry_addr (image_for view payload) "backdoor"

(** Code address of the system() call inside the backdoor: a mid-function
    gadget that still reaches the attacker's goal. *)
let gadget_addr view payload =
  let image = image_for view payload in
  let fn = Prog.find_func image.M.Loader.prog "backdoor" in
  let found = ref None in
  Array.iter
    (fun (b : Prog.block) ->
      Array.iteri
        (fun idx instr ->
          match instr, !found with
          | I.Intrin { op = I.I_system; _ }, None ->
            found := Some (M.Loader.point_addr image "backdoor" b.Prog.bid idx)
          | _ -> ())
        b.Prog.instrs)
    fn.Prog.blocks;
  match !found with
  | Some a ->
    if M.Loader.is_function_entry image a then
      invalid_arg "gadget_addr: gadget coincides with the function entry";
    a
  | None -> invalid_arg "gadget_addr: backdoor has no system() call"

(** Call-preceded gadget: the address of the call to [do_backdoor] inside
    [staging], which immediately follows another call and is therefore a
    valid return site for coarse-grained CFI. *)
let callsite_gadget_addr view payload =
  let image = image_for view payload in
  let fn = Prog.find_func image.M.Loader.prog "staging" in
  let found = ref None in
  Array.iter
    (fun (b : Prog.block) ->
      Array.iteri
        (fun idx instr ->
          match instr, !found with
          | I.Call { callee = I.Direct "do_backdoor"; _ }, None ->
            found := Some (M.Loader.point_addr image "staging" b.Prog.bid idx)
          | _ -> ())
        b.Prog.instrs)
    fn.Prog.blocks;
  match !found with
  | Some a -> a
  | None -> invalid_arg "callsite_gadget_addr: staging has no do_backdoor call"

(** Ordered allocas (register, type) of a function. *)
let allocas_of (fn : Prog.func) =
  let acc = ref [] in
  Prog.iter_instrs fn (fun i ->
      match i with
      | I.Alloca { dst; ty; _ } -> acc := (dst, ty) :: !acc
      | _ -> ());
  List.rev !acc

(** The [k]-th alloca slot of [fname] in [image]'s frame layout. *)
let nth_slot image fname k =
  let fn = Prog.find_func image.M.Loader.prog fname in
  let reg, _ = List.nth (allocas_of fn) k in
  Hashtbl.find (M.Loader.layout image fname).M.Loader.fl_slots reg

(** Frame base address of the innermost function of [chain] (a direct call
    chain rooted at main), mirroring the machine's frame arithmetic: main's
    frame base is the initial stack pointer, each callee's base is the
    caller's base minus the caller's regular frame size. *)
let frame_base_from (image : M.Loader.image) ~top chain =
  let size fname = (M.Loader.layout image fname).M.Loader.fl_regular_size in
  let rec go base = function
    | [] -> invalid_arg "frame_base: empty chain"
    | [ _innermost ] -> base
    | fname :: rest -> go (base - size fname) rest
  in
  go (top + image.M.Loader.slide) chain

let frame_base image chain = frame_base_from image ~top:M.Layout.stack_top chain

(** Same arithmetic for a call chain rooted at spawned thread [tid]'s
    entry function: the thread's frames are carved from its own stack
    window, so the chain's base is that window's top. *)
let thread_frame_base image ~tid chain =
  frame_base_from image ~top:(M.Layout.thread_stack_top tid) chain

(** The [k]-th alloca slot of [fname] as the attacker sees it: the deployed
    layout, falling back to the unprotected reference layout when the slot
    was moved to the safe stack (the attacker's offsets go stale — and the
    region is unreachable anyway). *)
let slot_for view fname k =
  let s = nth_slot view.deployed fname k in
  if s.M.Loader.sl_on_safe then nth_slot view.reference fname k else s

(** Address of global [name] (absolute: plain image unless leak). *)
let global_of view payload name =
  Hashtbl.find (image_for view payload).M.Loader.global_addr name

(** Distance between two globals (slide-invariant: deployed image). *)
let global_distance view ~from ~to_ =
  Hashtbl.find view.deployed.M.Loader.global_addr to_
  - Hashtbl.find view.deployed.M.Loader.global_addr from

(** Direct-overflow payload: [dist] filler words, then [value]. *)
let overflow_payload ?(fill = 0x41) ~dist value =
  let p = Array.make (dist + 1) fill in
  p.(dist) <- value;
  p
