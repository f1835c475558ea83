(** IR instructions.

    The IR is register-based and non-SSA (like LLVM IR before mem2reg):
    locals live in allocas, virtual registers hold temporaries.
    Instructions are immutable: the instrumentation passes of the paper
    decide a [knob] per instruction, kept beside it in a build
    ([Prog.func]'s [knobs]) — exactly the three knobs Levee turns, plus
    the CFI baselines' call checks and the safe-store memcpy/memset. *)

type operand =
  | Reg of int          (* virtual register *)
  | Imm of int          (* integer immediate *)
  | Glob of string      (* address of a global object *)
  | Fun of string       (* code address of a function *)
  | Nullp               (* null pointer *)

(** Where a memory operation stores/loads the value and its metadata.

    - [Regular]: plain access to regular memory, no metadata (vanilla code
      and all non-sensitive accesses under CPI/CPS).
    - [RegularMeta]: value in regular memory, bounds kept in a disjoint
      metadata table keyed by the pointer's location — SoftBound's layout.
    - [SafeFull]: value + bounds + temporal id in the safe pointer store,
      regular copy unused — CPI's layout for sensitive pointers.
    - [SafeValue]: value only in the safe pointer store, no metadata —
      CPS's layout for code pointers.
    - [SafeDebug]: like [SafeFull] but the value is mirrored into regular
      memory and compared on load — the paper's debug mode (Section 3.2.2).
    - [Crypt]: value kept in regular memory as ciphertext under the run's
      pointer-cipher key, no metadata — the in-place encryption layout of
      LIPPEN/CryptSan-style schemes (cpi-crypt). *)
type where = Regular | RegularMeta | SafeFull | SafeValue | SafeDebug | SafeData
           | Crypt

(* [SafeData] is the layout for programmer-annotated sensitive *data*
   (Section 4's struct-ucred case): the value itself is kept in the safe
   pointer store so arbitrary writes to the regular region cannot alter
   it, but it carries no based-on bounds (it is not a pointer). *)

(** Stack slot placement for allocas, decided by the safe stack pass:
    [Auto] = untouched (regular stack), [Safe] = proven-safe object on the
    safe stack, [Unsafe] = needs an unsafe frame in the regular region. *)
type slot_kind = Auto | SafeSlot | UnsafeSlot

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type cmpop = Eq | Ne | Lt | Le | Gt | Ge
type castkind = Bitcast | PtrToInt | IntToPtr

(** A step of address computation (flattened GEP). Field steps carry the
    field's size so the machine can narrow based-on bounds to the
    sub-object, per case (iii) of the paper's based-on definition. *)
type gep_step =
  | Field of string * int * int (* field name, word offset, field size *)
  | Index of Ty.t * operand     (* array indexing: element type, index *)

type callee = Direct of string | Indirect of operand

(** Runtime intrinsics. [Sp_*] intrinsics are inserted by passes and
    implemented by the machine's runtime support (the compiler-rt analogue);
    the rest model the relevant parts of libc, including the memory
    manipulation functions whose type-aware variants Section 3.2.2
    describes, and the classically vulnerable string functions that the
    RIPE-style attacks exploit. *)
type intrin =
  | I_malloc | I_free
  | I_memcpy | I_memset | I_strcpy | I_strlen | I_strcmp
  | I_read_input                  (* attacker-controlled byte stream *)
  | I_read_int
  | I_print_int | I_print_str
  | I_checksum                    (* fold a word into the program checksum *)
  | I_setjmp | I_longjmp
  | I_system                      (* the forbidden control-flow target *)
  | I_exit | I_abort
  (* Threading runtime (paper §4.2: per-thread stack pairs over a shared
     safe region). The deterministic scheduler lives in the machine. *)
  | I_thread_spawn | I_thread_join
  | I_mutex_lock | I_mutex_unlock
  | I_atomic_add

type instr =
  | Alloca of { dst : int; ty : Ty.t }
  | Bin of { dst : int; op : binop; l : operand; r : operand }
  | Cmp of { dst : int; op : cmpop; l : operand; r : operand }
  | Load of { dst : int; ty : Ty.t; addr : operand }
  | Store of { ty : Ty.t; v : operand; addr : operand }
  | Gep of { dst : int; base_ty : Ty.t; base : operand; path : gep_step list }
  | Cast of { dst : int; kind : castkind; ty : Ty.t; v : operand }
  | Call of { dst : int option; callee : callee; args : operand list;
              fty : Ty.t }
  | Intrin of { dst : int option; op : intrin; args : operand list }

(** One instruction's instrumentation decision in a build. *)
type knob =
  | Plain                     (* as lowered: [Regular], unchecked, [Auto] *)
  | Access of where * bool    (* a load's or store's routing; checked? *)
  | Slot of slot_kind         (* an alloca's placement *)
  | Cfi of string list option (* an indirect call checked against any
                                 function entry, or also cfi-type's set *)
  | Safe_memop                (* a memcpy/memset that moves or clears the
                                 safe-store entries too (Section 3.2.2) *)

type term =
  | Ret of operand option
  | Br of operand * int * int     (* cond, then-block, else-block *)
  | Jmp of int
  | Switch of operand * (int * int) list * int  (* value, (case, block), default *)
  | Unreachable

let intrin_name = function
  | I_malloc -> "malloc" | I_free -> "free"
  | I_memcpy -> "memcpy" | I_memset -> "memset"
  | I_strcpy -> "strcpy" | I_strlen -> "strlen" | I_strcmp -> "strcmp"
  | I_read_input -> "read_input" | I_read_int -> "read_int"
  | I_print_int -> "print_int" | I_print_str -> "print_str"
  | I_checksum -> "checksum"
  | I_setjmp -> "setjmp" | I_longjmp -> "longjmp"
  | I_system -> "system" | I_exit -> "exit" | I_abort -> "abort"
  | I_thread_spawn -> "thread_spawn" | I_thread_join -> "thread_join"
  | I_mutex_lock -> "mutex_lock" | I_mutex_unlock -> "mutex_unlock"
  | I_atomic_add -> "atomic_add"

let intrin_of_name = function
  | "malloc" -> Some I_malloc | "free" -> Some I_free
  | "memcpy" -> Some I_memcpy | "memset" -> Some I_memset
  | "strcpy" -> Some I_strcpy | "strlen" -> Some I_strlen
  | "strcmp" -> Some I_strcmp
  | "read_input" -> Some I_read_input | "read_int" -> Some I_read_int
  | "print_int" -> Some I_print_int | "print_str" -> Some I_print_str
  | "checksum" -> Some I_checksum
  | "setjmp" -> Some I_setjmp | "longjmp" -> Some I_longjmp
  | "system" -> Some I_system | "exit" -> Some I_exit | "abort" -> Some I_abort
  | "thread_spawn" -> Some I_thread_spawn | "thread_join" -> Some I_thread_join
  | "mutex_lock" -> Some I_mutex_lock | "mutex_unlock" -> Some I_mutex_unlock
  | "atomic_add" -> Some I_atomic_add
  | _ -> None

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"

let cmpop_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let where_name = function
  | Regular -> "reg" | RegularMeta -> "sb" | SafeFull -> "cpi"
  | SafeValue -> "cps" | SafeDebug -> "cpi-dbg" | SafeData -> "cpi-data"
  | Crypt -> "crypt"
