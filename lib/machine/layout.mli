(** Address-space layout of the simulated process (paper Fig. 2).

    Addresses are word-granular. A regular region (globals, heap, unsafe
    stacks) that ordinary memory operations may touch, and a safe region
    (safe stacks; conceptually also the safe pointer store) that only CPI
    intrinsics and proven-safe accesses may reach. ASLR is an additive
    slide over every base. *)

val null_guard : int
val globals_base : int
val heap_base : int
val heap_limit : int
val stack_top : int
val stack_limit : int
val safe_base : int
val safe_stack_top : int
val safe_end : int

(** Per-thread stack carving: thread [k] owns regular and safe stack
    windows [k * thread_stack_stride] below the thread-0 tops. Thread 0's
    windows are the historical single-thread stacks. *)
val max_threads : int

val thread_stack_stride : int
val thread_stack_top : int -> int
val thread_safe_stack_top : int -> int

(** Overflow floor for a thread's regular stack; [stack_limit] for
    thread 0. *)
val thread_stack_floor : int -> int
val code_base : int
val code_end : int

(** The magic word an attacker plants to simulate injected shellcode. *)
val shellcode_magic : int

(** Default ASLR slide when ASLR is enabled. *)
val aslr_slide : int

type region = Null | Globals | Heap | Stack | Safe | Code | Other

val region_of : ?slide:int -> int -> region
val in_safe_region : ?slide:int -> int -> bool

(** Whether an address lies in the code segment slid by the first
    argument, which is plain rather than optional because an optional
    argument is boxed at every call site (the interpreter's [divert]
    tests every diverted target). *)
val in_code_s : int -> int -> bool
