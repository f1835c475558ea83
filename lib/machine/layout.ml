(** Address-space layout of the simulated process.

    Addresses are word-granular (one 64-bit word per address unit). The
    layout follows Fig. 2 of the paper: a regular region (globals, heap,
    unsafe stacks) that ordinary memory operations may touch, and a safe
    region (safe stacks and, conceptually, the safe pointer store) that
    only CPI intrinsics may access. ASLR is modelled as an additive slide
    applied to every base. *)

let null_guard = 0x1000            (* accesses below this are null derefs *)

let globals_base = 0x0010_0000
let heap_base = 0x0100_0000
let heap_limit = 0x0800_0000
let stack_top = 0x0FFF_0000        (* regular (unsafe) stack, grows down *)
let stack_limit = 0x0800_0000

let safe_base = 0x4000_0000        (* everything >= this is the safe region *)
let safe_stack_top = 0x4FFF_0000   (* safe stacks, grow down *)
let safe_end = 0x6000_0000

(** Per-thread stack carving (paper §4.2: every thread owns an unsafe
    stack and a safe stack; the safe region and heap are shared). Thread
    [k] gets the pair of windows [thread_stack_stride] words below thread
    [k-1]'s, in both the regular and the safe region. Thread 0's windows
    are exactly the historical single-thread stacks, so single-threaded
    programs see an unchanged address space. *)
let max_threads = 8
let thread_stack_stride = 0x00F0_0000

let thread_stack_top tid = stack_top - (tid * thread_stack_stride)
let thread_safe_stack_top tid = safe_stack_top - (tid * thread_stack_stride)

(* Thread 0 keeps the historical overflow floor at [stack_limit]; later
   threads may not grow into the window of the next thread. *)
let thread_stack_floor tid =
  if tid = 0 then stack_limit
  else thread_stack_top tid - thread_stack_stride + null_guard

let code_base = 0x7000_0000        (* code addresses; read-execute only *)
let code_end = 0x7800_0000

(** The magic word an attacker plants to simulate injected shellcode; the
    machine "executes" a data address only if DEP is off and this marker is
    present. *)
let shellcode_magic = 0x51EC0DE

(** Default ASLR slide used by the evaluation when ASLR is enabled. The
    attacker does not know it unless an information leak is part of the
    attack. *)
let aslr_slide = 0x0002_A000

type region = Null | Globals | Heap | Stack | Safe | Code | Other

let region_of ?(slide = 0) addr =
  let a = addr - slide in
  if a >= code_base && a < code_end then Code
  else if a >= safe_base && a < safe_end then Safe
  else if a < null_guard then Null
  else if a >= globals_base && a < heap_base then Globals
  else if a >= heap_base && a < heap_limit then Heap
  else if a >= stack_limit && a <= stack_top then Stack
  else Other

let in_safe_region ?(slide = 0) addr =
  let a = addr - slide in
  a >= safe_base && a < safe_end

(* The slide is a plain argument: an optional one is boxed at every call
   site. *)
let[@inline] in_code_s slide addr =
  let a = addr - slide in
  a >= code_base && a < code_end
