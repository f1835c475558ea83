(** The IR interpreter: a word-granular machine with based-on metadata.

    The interpreter realizes the operational semantics of Appendix A at the
    IR level: every register optionally carries based-on metadata (bounds +
    temporal id + kind), safe-store-routed memory operations persist that
    metadata, plain operations drop it, and checked operations verify it.
    Control-flow is fully decodable: every instruction has a code address,
    so a corrupted return address or function pointer "jumps" exactly where
    the attacker pointed it — into a function, a gadget in the middle of
    one, injected shellcode in a data page, or garbage.

    The machine runs compiled code. The first time a function is entered,
    it is compiled straight from its IR: each instruction and terminator
    becomes one closure over the machine state, specialised on its
    operand kinds (register or constant), operator, [where]/[checked] and
    constant address; rare shapes compile to closures over the general
    [do_load]/[do_store]/[do_call]/[do_intrin]/[do_ret] helpers. Operands,
    alloca slots, GEP steps, callees, return addresses, cfi-type sets and
    switch tables are resolved then, once, and every register is checked
    against the function's [nregs]. The code is cached on the
    [Loader.image], so every run of an image shares it.

    One driver, [run_loop], runs the closures. Each turn makes the step
    semantics' tests once, in their order (fuel, then the faults
    scheduled for this step, then preemption), then runs the stretch at
    the frame's [ip]: a run of a block's instructions with no call or
    intrinsic, through its [Br]/[Jmp]/[Switch] terminator if it reaches
    one, or the one instruction there when none starts at it. The turn
    is clipped so that it ends before the fuel runs out, before the next
    scheduled fault and before the quantum expires, so no boundary falls
    inside it; fuel is still counted per instruction, so a trap inside a
    stretch reports the same [instrs] and [cycles] as single-stepping
    would. Simulated cycles, instruction counts, footprints and checksums
    are byte-identical to the decode-per-step interpreter; only host
    wall-clock changes (the golden rows and simulation digests of the
    determinism test, and the step-boundary sweeps of the interpreter
    test, assert this). *)

module Ty = Levee_ir.Ty
module I = Levee_ir.Instr
module Prog = Levee_ir.Prog
open Trap

(* Based-on metadata of a register value: bounds, temporal id and kind.
   It is the safe store's record, so loads and stores move it between
   registers and entries as is. *)
type meta = Safestore.meta = {
  lower : int; upper : int; tid : int; kind : Safestore.kind }

(* An operand as the compiled code reads it: a register, or a constant
   with its value and metadata ([Imm], [Nullp], and the address of a
   global or a function, resolved when the function is compiled). *)
type operand = Reg of int | Const of int * meta option

(* A GEP step: a field (word offset, and field size for bounds
   narrowing) or an index (element size in words, index operand). *)
type gep_step = Field of int * int | Index of int * operand

type jmp_ctx = {
  jc_tid : int;                (* owning thread: cross-thread longjmp is corruption *)
  jc_depth : int;
  jc_block : int;
  jc_ip : int;                 (* resume point: just after the setjmp *)
  jc_dst : int option;         (* setjmp's destination register *)
  jc_resume_addr : int;        (* code address of the resume point *)
}

type thread_status =
  | Runnable
  | Blocked_join of int        (* waiting for thread [tid] to finish *)
  | Blocked_mutex of int       (* waiting to acquire the mutex at [addr] *)
  | Finished of int            (* thread function returned this value *)

(* A scheduled corruption, injected between two instruction steps. The
   addresses are absolute (post-slide) machine addresses; resolution from
   symbolic sites happens in the attack layer (Faultplan). *)
type fault =
  | Flip_bit of { addr : int; bit : int }
  | Arb_write of { addr : int; value : int }
  | Store_desync of { addr : int; delta : int }
  | Meta_drop of { addr : int }
  | Stall of { cycles : int }
  | Worker_kill of { tid : int }

type frame = {
  findex : int;                (* the function's index in the image *)
  code : block_code array;     (* its compiled blocks *)
  regs : int array;
  rmeta : meta option array;
  mutable block : int;
  mutable ip : int;
  base_r : int;
  base_s : int;
  ret_dst : int option;        (* caller register receiving the result *)
  pushed_ret : int;            (* legitimate return target *)
  cookie_value : int;
  penalize_stack : bool;       (* hot frame exceeds the cache-friendly size *)
  layout : Loader.frame_layout;
}

(* One compiled block: [ops.(ip)] executes instruction [ip], and
   [ops.(n)] (n instructions) the terminator, so a frame's [ip] always
   indexes [ops] and [span]. No closure moves [ip] forward: the driver
   does, past a call or intrinsic before it runs, so the callee or the
   intrinsic sees the caller already past its instruction.
   [span.(ip)] is the number of steps in the stretch that starts at [ip],
   0 at a call, intrinsic, return or [Unreachable], which the driver runs
   alone. *)
and block_code = {
  ops : op array;
  span : int array;
}

(* One compiled instruction or terminator. *)
and op = t -> frame -> unit

(* A compiled function: its blocks and the size of its frames' register
   files. [nregs] is read once, when the function is compiled and every
   register it names is checked against it, so the unchecked register
   accesses stay in bounds whatever later happens to the IR. *)
and compiled = { nregs : int; blocks : block_code array }

(* One thread of the machine: its own call stack (frames) over its own
   regular+safe stack pair (paper §4.2); registers live in the frames.
   Everything else — heap, globals, safe region, safe store — is shared. *)
and thread = {
  t_id : int;
  mutable status : thread_status;
  mutable frames : frame list;
  mutable depth : int;         (* List.length frames, maintained incrementally *)
  mutable cur : frame;         (* cached head of [frames] *)
  mutable sp_r : int;
  mutable sp_s : int;
  stack_floor : int;           (* regular-stack overflow floor (slid) *)
  safe_win_lo : int;           (* own safe-stack window (slid), exclusive lo *)
  safe_win_hi : int;           (* .. inclusive hi *)
  mutable locks : int list;    (* held mutex addresses, for the race detector *)
}

and t = {
  image : Loader.image;
  cfg : Config.t;
  slide : int;                 (* image slide, cached off the hot path *)
  key : int;                   (* cpi-crypt pointer-cipher key (0 = unused) *)
  mem : Mem.t;
  store : Safestore.t;
  heap : Heap.t;
  cost : Cost.t;
  mutable running : thread;    (* the thread the hot loop is executing *)
  mutable threads : thread array;  (* index = tid; slot 0 = the main thread *)
  (* Deterministic scheduling: [mt] flips on at the first thread_spawn;
     until then the driver pays two boolean tests per turn and the
     machine is observationally identical to the single-threaded one.
     [sched_left] counts instructions down to the next preemption. *)
  sched : Sched.t;
  mutable mt : bool;
  mutable sched_left : int;
  mutable live : int;          (* threads not yet Finished (joined or not) *)
  mutexes : (int, int) Hashtbl.t;  (* mutex address -> owner tid *)
  race : Race.t;
  mutable race_mute : bool;    (* suppress tracking (atomics, fault injection) *)
  fuel0 : int;                 (* initial fuel; instrs executed = fuel0 - fuel *)
  input : int array;
  mutable input_pos : int;
  out : Buffer.t;
  mutable checksum : int;
  mutable fuel : int;
  jmp_ctxs : (int, jmp_ctx) Hashtbl.t;
  mutable next_jmp : int;
  (* Based-on metadata shadow for safe-region addresses: the safe stack is
     isolation-protected, so values stored there keep their metadata the
     way register-resident values do after mem2reg. This is what lets the
     instrumentation passes skip proven-safe local slots, mirroring the
     paper's point that compiler optimizations remove many inserted
     checks (Section 3.2.2). A paged table of 256-slot pages, so the hot
     path never hashes. *)
  shadow : meta Safestore.Paged.t;
  (* Scheduled fault injection: [faults] is sorted by step; the driver
     pays two integer compares per turn against [next_fault_fuel] (the
     fuel value at which the next fault fires; min_int = none pending). *)
  faults : (int * fault) array;
  mutable fault_pos : int;
  mutable next_fault_fuel : int;
}

type result = {
  outcome : outcome;
  cycles : int;
  instrs : int;
  mem_ops : int;
  instrumented_mem_ops : int;
  output : string;
  checksum : int;
  mem_footprint : int;         (* words of regular memory touched *)
  store_footprint : int;       (* words used by the safe pointer store *)
  store_accesses : int;        (* safe-store get/set/clear operations *)
  heap_peak : int;
  threads : int;               (* total threads, including main (>= 1) *)
  ctx_switches : int;          (* scheduler context switches *)
  races : int;                 (* data races reported by the lockset detector *)
  race_details : Race.report list;  (* the structured reports, in order *)
}

(* Sentinel "return address" of the outermost frame; returning through it
   exits the program. *)
let exit_sentinel = Layout.code_base - 7

let stop outcome = raise (Machine_stop outcome)

(* Placeholder [cur] before the first frame is pushed; never executed. *)
let dummy_frame () =
  { findex = -1; code = [||]; regs = [||]; rmeta = [||]; block = 0; ip = 0;
    base_r = 0; base_s = 0; ret_dst = None; pushed_ret = 0; cookie_value = 0;
    penalize_stack = false; layout = Loader.untouched.Loader.layout }

(* A fresh thread over its carved stack pair. Thread 0's windows are the
   historical single-thread stacks, so single-threaded runs are unchanged. *)
let fresh_thread ~slide tid =
  { t_id = tid; status = Runnable; frames = []; depth = 0;
    cur = dummy_frame ();
    sp_r = Layout.thread_stack_top tid + slide;
    sp_s = Layout.thread_safe_stack_top tid + slide;
    stack_floor = Layout.thread_stack_floor tid + slide;
    safe_win_lo =
      Layout.thread_safe_stack_top tid - Layout.thread_stack_stride + slide;
    safe_win_hi = Layout.thread_safe_stack_top tid + slide;
    locks = [] }

(* ---------- Memory access with isolation ---------- *)

let charge_sfi st =
  if st.cfg.Config.isolation = Config.Sfi then Cost.add st.cost Cost.sfi_mask

(* A plain access may touch the safe region only with valid in-bounds
   provenance (a proven-safe safe-stack access). Anything else models an
   attacker-influenced access: blocked by segments / guaranteed-miss under
   leak-proof info hiding / masked by SFI — uniformly reported as an
   isolation violation. *)
let check_safe_access addr meta ~size =
  match meta with
  | Some m when m.kind = Safestore.Data && addr >= m.lower && addr + size <= m.upper -> ()
  | _ -> stop (Trapped Isolation_violation)

(* SFI isolation protects the *integrity* of the safe region: only writes
   need masking (reads cannot corrupt, and the safe region's secrecy is the
   info-hiding mechanism's job). Accesses the safe stack analysis proved
   safe live in the safe region and need no mask either — this is how the
   paper keeps the SFI variant under ~5%. *)

(* ---------- Race-detector hooks ---------- *)

(* Shared-memory accesses feed the lockset detector once the machine is
   multithreaded. "Shared" means globals/heap and the safe region outside
   the accessing thread's own safe-stack window: regular-stack accesses
   (the overwhelming majority) skip the detector on two compares, and a
   single-threaded machine pays one boolean test. *)
let[@inline never] race_track st a ~write =
  let u = a - st.slide in
  let kind =
    if u < Layout.stack_limit then
      if u >= Layout.globals_base then Some Race.Shared_data else None
    else if u >= Layout.safe_base && u < Layout.safe_end then begin
      let th = st.running in
      if a <= th.safe_win_hi && a > th.safe_win_lo then None
      else Some Race.Safe_region
    end
    else None
  in
  match kind with
  | Some kind ->
    ignore
      (Race.access st.race ~addr:u ~tid:st.running.t_id ~write
         ~locks:st.running.locks ~kind)
  | None -> ()

(* Track only while more than one unfinished thread exists: thread_join
   is a happens-before edge, so accesses made once every sibling has
   finished (e.g. main reading the result after joining its workers)
   cannot race — pure lockset would misreport them. *)
let[@inline] race_data st a ~write =
  if st.mt && st.live > 1 && not st.race_mute then race_track st a ~write

(* Safe-store (metadata) accesses are tracked under their own key space:
   a racy metadata update is a runtime-support bug even when the value
   accesses themselves are ordered. *)
let[@inline] race_meta st a ~write =
  if st.mt && st.live > 1 && not st.race_mute then
    ignore
      (Race.access st.race ~addr:(a - st.slide) ~tid:st.running.t_id ~write
         ~locks:st.running.locks ~kind:Race.Metadata)

(* The region classification is fused into the accessors: the regions are
   disjoint address ranges and only Null, Safe and Code need any action, so
   the overwhelmingly common regular-region access (globals / heap / unsafe
   stack) costs two compares before touching memory. *)
let plain_read st addr meta =
  race_data st addr ~write:false;
  let a = addr - st.slide in
  if a < Layout.safe_base then begin
    if a < Layout.null_guard then stop (Crash "null-page access");
    Mem.read st.mem addr
  end
  else if a < Layout.safe_end then begin
    check_safe_access addr meta ~size:1;
    Mem.read st.mem addr
  end
  else if a >= Layout.code_base && a < Layout.code_end then 0xC0DE
  else Mem.read st.mem addr

let plain_write st addr meta v =
  race_data st addr ~write:true;
  let a = addr - st.slide in
  if a < Layout.safe_base then begin
    if a < Layout.null_guard then stop (Crash "null-page access");
    charge_sfi st;
    Mem.write st.mem addr v
  end
  else if a < Layout.safe_end then begin
    check_safe_access addr meta ~size:1;
    Mem.write st.mem addr v
  end
  else begin
    if a >= Layout.code_base && a < Layout.code_end then
      stop (Crash "write to code segment");
    charge_sfi st;
    Mem.write st.mem addr v
  end

(* ---------- Metadata checks (the CPI runtime checks) ---------- *)

let check_deref st addr meta ~size ~what =
  Cost.charge_check st.cost;
  match meta with
  | None -> stop (Trapped (Missing_metadata what))
  | Some m ->
    (match m.kind with
     | Safestore.Code ->
       (* Dereferencing a code pointer as data is never safe. *)
       stop (Trapped (Bounds_violation "code pointer used as data"))
     | Safestore.Data ->
       if Heap.tid_dead st.heap m.tid then stop (Trapped Temporal_violation);
       if addr < m.lower || addr + size > m.upper then
         stop (Trapped (Bounds_violation what)))

(* ---------- Operand evaluation ---------- *)

(* Operands are resolved at compile time: a register read or a
   constant, no lookups. The value and metadata projections are split so
   the hot loop never allocates a pair per operand (no flambda to elide
   it). Compiling a function refuses any register outside [0, nregs)
   ([check_reg] below), and its frames' register files have [nregs]
   slots, so the closures access them unchecked. *)
let[@inline] eval_v fr o =
  match o with
  | Reg r -> Array.unsafe_get fr.regs r
  | Const (v, _) -> v

let[@inline] eval_m fr o =
  match o with
  | Reg r -> Array.unsafe_get fr.rmeta r
  | Const (_, m) -> m

(* Metadata slots are written through the GC's write barrier, and most
   writes store [None] over [None]: test the slot first. *)
let[@inline] set_m (rm : meta option array) dst m =
  if Array.unsafe_get rm dst != m then Array.unsafe_set rm dst m

let[@inline] set_reg fr dst v m =
  Array.unsafe_set fr.regs dst v;
  set_m fr.rmeta dst m

(* ---------- Frame management ---------- *)

let cookie_secret base = 0x600DC00C lxor (base * 31)

(* The compiler (below) builds closures over the helpers that push
   frames, and pushing a frame needs the callee's compiled code: frames
   reach the compiler through this reference, set once at module
   initialisation. *)
let compile_fwd :
    (Loader.image -> int -> Loader.frame_layout -> compiled) ref =
  ref (fun _ _ _ -> assert false)

type Loader.code += Compiled of compiled

(* Lay out (if nothing has yet) and compile function [idx]; the code is
   cached in its slot on the image for every later run. *)
let compile image idx =
  let fn = Loader.fn image idx in
  let c = !compile_fwd image idx fn.Loader.layout in
  fn.Loader.code <- Compiled c;
  c

(* Push a frame of function [idx] with zeroed registers onto thread [th];
   the caller fills the argument registers afterwards (before any callee
   instruction runs). [th] is the running thread everywhere except
   thread_spawn, which pushes the outermost frame of the thread it
   creates. A function entered before costs one test of its slot. *)
let push_frame st th idx ~ret_dst ~pushed_ret ~entry =
  let c =
    match (Array.unsafe_get st.image.Loader.fns idx).Loader.code with
    | Compiled c -> c
    | _ -> compile st.image idx
  in
  let layout = (Array.unsafe_get st.image.Loader.fns idx).Loader.layout in
  let base_r = th.sp_r in
  let base_s = th.sp_s in
  th.sp_r <- th.sp_r - layout.Loader.fl_regular_size;
  th.sp_s <- th.sp_s - layout.Loader.fl_safe_size;
  if th.sp_r < th.stack_floor then
    stop (Crash "regular stack overflow");
  let regs = Array.make (max c.nregs 1) 0 in
  let rmeta = Array.make (max c.nregs 1) None in
  let cookie_value = cookie_secret base_r in
  (match layout.Loader.fl_cookie_offset with
   | Some off ->
     Mem.write st.mem (base_r - off) cookie_value;
     Cost.add st.cost Cost.cookie_cost
   | None -> ());
  (* Write the return address into its slot (regular or safe stack).
     cpi-crypt has no safe stack: the slot stays in the regular region but
     holds ciphertext, so an overwrite garbles rather than redirects. *)
  let ret_slot_base = if layout.Loader.fl_ret_on_safe then base_s else base_r in
  let slot_ret =
    if st.cfg.Config.crypt_ptrs then begin
      Cost.add st.cost Cost.crypt_cost;
      Ptrcipher.encrypt st.key pushed_ret
    end
    else pushed_ret
  in
  Mem.write st.mem (ret_slot_base - layout.Loader.fl_ret_offset) slot_ret;
  (* Instrumentation costs of the call itself. *)
  Cost.add st.cost Cost.call_base;
  if st.cfg.Config.safe_stack && layout.Loader.fl_has_unsafe then
    Cost.add st.cost Cost.unsafe_frame_cost;
  (* Locality model: a large hot frame area costs extra per call; the safe
     stack keeps the hot area small by moving buffers away. *)
  let hot_resident =
    if st.cfg.Config.safe_stack then layout.Loader.fl_safe_size
    else layout.Loader.fl_regular_size
  in
  let penalize_stack = hot_resident > Cost.hot_frame_threshold in
  let block, ip = entry in
  let fr =
    { findex = idx; code = c.blocks; regs; rmeta; block; ip;
      base_r; base_s; ret_dst; pushed_ret; cookie_value; penalize_stack;
      layout }
  in
  th.frames <- fr :: th.frames;
  th.depth <- th.depth + 1;
  th.cur <- fr;
  fr

let pop_frame th =
  match th.frames with
  | f :: rest ->
    th.frames <- rest;
    th.depth <- th.depth - 1;
    (match rest with g :: _ -> th.cur <- g | [] -> ());
    th.sp_r <- f.base_r;
    th.sp_s <- f.base_s;
    f
  | [] -> assert false

(* ---------- Scheduling ---------- *)

(* Move to the next runnable thread (or stay). Called on quantum expiry
   and whenever the running thread blocks or finishes; only ever invoked
   once the machine is multithreaded, so single-threaded runs draw nothing
   from the scheduler streams. *)
let reschedule st =
  let cur_id = st.running.t_id and n = Array.length st.threads in
  let runnable i =
    match st.threads.(i).status with Runnable -> true | _ -> false
  in
  match Sched.pick st.sched ~current:cur_id ~runnable ~n with
  | None -> stop (Crash "deadlock: no runnable thread")
  | Some tid ->
    st.sched_left <- Sched.quantum st.sched;
    if tid <> cur_id then begin
      st.cost.Cost.ctx_switches <- st.cost.Cost.ctx_switches + 1;
      Cost.add st.cost Cost.ctx_switch;
      st.running <- st.threads.(tid)
    end

(* Thread termination, by return or by a kill: record the value, wake
   joiners, and schedule away if the thread was running. (Thread 0 never
   comes here — its exit ends the program.) *)
let finish_thread st th rv =
  th.status <- Finished rv;
  st.live <- st.live - 1;
  for i = 0 to Array.length st.threads - 1 do
    let o = st.threads.(i) in
    match o.status with
    | Blocked_join j when j = th.t_id -> o.status <- Runnable
    | _ -> ()
  done;
  if st.running == th then reschedule st

(* ---------- Control-flow diversion ---------- *)

(* [divert st target ~via] models the machine transferring control to an
   arbitrary address: the core of every hijack attempt. *)
let divert st target ~via =
  (match via, st.cfg.Config.cfi_checks with
   | `Ret, true ->
     if not (Loader.is_return_site st.image target) then
       stop (Trapped (Cfi_violation "return target is not a call site"))
   | (`Ret | `Call | `Longjmp), _ -> ());
  match Loader.decode st.image target with
  | Some cp ->
    (* A function entry (block 0, ip 0) runs the function with garbage
       arguments; any other point is a gadget in the middle of one. Either
       way the registers hold garbage (zeroes). *)
    ignore
      (push_frame st st.running
         (Hashtbl.find st.image.Loader.fn_index cp.Loader.cp_fn)
         ~ret_dst:None ~pushed_ret:exit_sentinel
         ~entry:(cp.Loader.cp_block, cp.Loader.cp_ip))
  | None ->
    if Layout.in_code_s st.slide target then
      stop (Crash "jump into code padding")
    else if st.cfg.Config.dep then stop (Trapped Exec_violation)
    else if Mem.read st.mem target = Layout.shellcode_magic then
      stop (Hijacked "shellcode executed")
    else stop (Crash "jump to non-code address")

(* ---------- Calls and returns ---------- *)

(* Membership probe for the cfi-type per-site target set (sorted entry
   addresses, typically tiny). *)
let in_cfi_set (set : int array) v =
  let n = Array.length set in
  let rec go i = i < n && (set.(i) = v || (set.(i) < v && go (i + 1))) in
  go 0

(* [ret_addr] was resolved when the caller was compiled: the code address
   of the instruction after the call site. The driver has already moved
   the caller past the call, so the frame resumes at the next instruction
   on return. *)
let invoke st fr dst args ret_addr idx =
  (* Operand evaluation is pure, so the arguments can be read out of the
     caller's (still live) registers directly into the callee's. *)
  let nf = push_frame st st.running idx ~ret_dst:dst
      ~pushed_ret:ret_addr ~entry:(0, 0) in
  let nregs = Array.length nf.regs in
  for i = 0 to Array.length args - 1 do
    if i < nregs then begin
      let o = Array.unsafe_get args i in
      Array.unsafe_set nf.regs i (eval_v fr o);
      Array.unsafe_set nf.rmeta i (eval_m fr o)
    end
  done

(* An indirect call through [o]; direct calls compile to [invoke] with
   the callee resolved. *)
let do_call st fr dst o args cfi_checked cfi_set ret_addr =
  Cost.add st.cost (Array.length args);
  let v = eval_v fr o and m = eval_m fr o in
  if st.cfg.Config.enforce_code_meta then begin
    (* CPI/CPS: only values with genuine code-pointer provenance may be
       indirect-call targets. *)
    match m with
    | Some { kind = Safestore.Code; _ } ->
      let idx = Loader.entry_index st.image v in
      if idx >= 0 then invoke st fr dst args ret_addr idx
      else stop (Crash "code pointer does not decode")
    | Some _ | None -> stop (Trapped Invalid_code_pointer)
  end
  else begin
    let idx = Loader.entry_index st.image v in
    if st.cfg.Config.cfi_checks && cfi_checked then begin
      Cost.add st.cost Cost.cfi_cost;
      if idx < 0 then
        stop (Trapped (Cfi_violation "indirect call target not a function"));
      (* cfi-type: the target must also lie in this call site's
         per-signature set, not just be some function entry. *)
      (match cfi_set with
       | Some set ->
         Cost.add st.cost Cost.cfi_set_cost;
         if not (in_cfi_set set v) then
           stop
             (Trapped (Cfi_violation "indirect call target outside type set"))
       | None -> ())
    end;
    if idx >= 0 then invoke st fr dst args ret_addr idx
    else divert st v ~via:`Call
  end

let do_ret st rv rm =
  Cost.add st.cost Cost.ret_base;
  let th = st.running in
  let fr = th.cur in
  (* Cookie check (epilogue). *)
  (match fr.layout.Loader.fl_cookie_offset with
   | Some off when st.cfg.Config.check_cookies ->
     if Mem.read st.mem (fr.base_r - off) <> fr.cookie_value then
       stop (Trapped Cookie_smashed)
   | Some _ | None -> ());
  let ret_slot_base =
    if fr.layout.Loader.fl_ret_on_safe then fr.base_s else fr.base_r
  in
  let stored = Mem.read st.mem (ret_slot_base - fr.layout.Loader.fl_ret_offset) in
  (* cpi-crypt: the slot holds ciphertext; a tampered slot decrypts to a
     garbled address and the divert below traps under DEP. *)
  let stored =
    if st.cfg.Config.crypt_ptrs then begin
      Cost.add st.cost Cost.crypt_cost;
      Ptrcipher.decrypt st.key stored
    end
    else stored
  in
  let popped = pop_frame th in
  if stored = popped.pushed_ret then begin
    if stored = exit_sentinel || th.frames = [] then begin
      (* Outermost return: program exit on the main thread, thread
         termination on a spawned one. *)
      if th.t_id = 0 then stop (Exit rv) else finish_thread st th rv
    end
    else begin
      (match popped.ret_dst with
       | Some dst -> set_reg th.cur dst rv rm
       | None -> ())
    end
  end
  else
    (* The stored return address differs from the one the call pushed:
       memory corruption. Control goes wherever it points. *)
    divert st stored ~via:`Ret

(* ---------- Intrinsics (the runtime support library + modelled libc) ---------- *)

let input_next st =
  if st.input_pos < Array.length st.input then begin
    let v = st.input.(st.input_pos) in
    st.input_pos <- st.input_pos + 1;
    Some v
  end
  else None

let read_cstr st addr maxlen =
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= maxlen then ()
    else
      let w = Mem.read st.mem (addr + i) in
      if w = 0 then ()
      else begin
        Buffer.add_char buf (Char.chr (((w mod 256) + 256) mod 256));
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let checksum_mix cs v =
  let rotated = ((cs lsl 7) lor (cs lsr (62 - 7))) land 0x3FFF_FFFF_FFFF_FFFF in
  (rotated lxor v) land 0x3FFF_FFFF_FFFF_FFFF

(* Bounds check for libc memory functions under full memory safety. *)
let libc_check st meta addr n what =
  if st.cfg.Config.check_libc && n > 0 then check_deref st addr meta ~size:n ~what

(* Arguments are evaluated on demand out of the caller's registers; every
   arm reads its operands before any frame is pushed or popped, so the
   caller frame is still live at each [v]/[m] use. *)
let do_intrin st fr dst (op : I.intrin) (args : operand array) =
  let v i = eval_v fr args.(i) in
  let m i = eval_m fr args.(i) in
  let ret value meta =
    match dst with Some d -> set_reg st.running.cur d value meta | None -> ()
  in
  Cost.add st.cost Cost.intrin_setup;
  match op with
  | I.I_malloc ->
    let n = v 0 in
    let b = Heap.malloc st.heap n in
    ret b.Heap.addr
      (Some { lower = b.Heap.addr; upper = b.Heap.addr + b.Heap.size;
              tid = b.Heap.tid; kind = Safestore.Data })
  | I.I_free ->
    let p = v 0 in
    if p = 0 then () else Heap.free st.heap p
  | I.I_memcpy | I.I_cpi_memcpy ->
    let d = v 0 and s = v 1 and n = v 2 in
    libc_check st (m 0) d n "memcpy dst";
    libc_check st (m 1) s n "memcpy src";
    Cost.add st.cost (Cost.per_word_libc * max n 0);
    for i = 0 to n - 1 do
      let w = plain_read st (s + i) (m 1) in
      plain_write st (d + i) (m 0) w;
      if op = I.I_cpi_memcpy then begin
        (* Type-unknown copy: move safe-store entries along with the data
           so protected pointers survive the copy (Section 3.2.2). *)
        Cost.add st.cost (Cost.cpi_memop_per_word st.cfg.Config.store_impl);
        match Safestore.get st.store (s + i) with
        | Some e -> Safestore.set st.store (d + i) e
        | None -> Safestore.clear_at st.store (d + i)
      end
    done
  | I.I_memset | I.I_cpi_memset ->
    let d = v 0 and x = v 1 and n = v 2 in
    libc_check st (m 0) d n "memset dst";
    Cost.add st.cost (Cost.per_word_libc * max n 0);
    for i = 0 to n - 1 do
      plain_write st (d + i) (m 0) x;
      if op = I.I_cpi_memset then begin
        Cost.add st.cost (Cost.cpi_memop_per_word st.cfg.Config.store_impl);
        Safestore.clear_at st.store (d + i)
      end
    done
  | I.I_strcpy ->
    let d = v 0 and s = v 1 in
    (* classically unbounded: copies until NUL *)
    let rec go i =
      let w = plain_read st (s + i) (m 1) in
      if st.cfg.Config.check_libc then
        check_deref st (d + i) (m 0) ~size:1 ~what:"strcpy dst";
      plain_write st (d + i) (m 0) w;
      Cost.add st.cost Cost.per_word_libc;
      if w <> 0 then go (i + 1)
    in
    go 0
  | I.I_strlen ->
    let s = v 0 in
    let rec go i = if plain_read st (s + i) (m 0) = 0 then i else go (i + 1) in
    let n = go 0 in
    Cost.add st.cost (Cost.per_word_libc * n);
    ret n None
  | I.I_strcmp ->
    let a = v 0 and b = v 1 in
    let rec go i =
      let x = plain_read st (a + i) (m 0) and y = plain_read st (b + i) (m 1) in
      Cost.add st.cost Cost.per_word_libc;
      if x <> y then compare x y
      else if x = 0 then 0
      else go (i + 1)
    in
    ret (go 0) None
  | I.I_read_input ->
    (* n >= 0: read up to n words. n < 0: gets() semantics — read words
       until end of input or a newline word (10), which is consumed but
       not stored. *)
    let d = v 0 and n = v 1 in
    let limit = if n < 0 then max_int else n in
    let rec go i =
      if i >= limit then i
      else
        match input_next st with
        | None -> i
        | Some 10 when n < 0 -> i
        | Some w ->
          if st.cfg.Config.check_libc then
            check_deref st (d + i) (m 0) ~size:1 ~what:"read_input dst";
          plain_write st (d + i) (m 0) w;
          Cost.add st.cost Cost.per_word_libc;
          go (i + 1)
    in
    ret (go 0) None
  | I.I_read_int ->
    (match input_next st with
     | Some w -> ret w None
     | None -> ret 0 None)
  | I.I_print_int ->
    Buffer.add_string st.out (string_of_int (v 0));
    Buffer.add_char st.out '\n'
  | I.I_print_str ->
    Buffer.add_string st.out (read_cstr st (v 0) 4096);
    Buffer.add_char st.out '\n'
  | I.I_checksum -> st.checksum <- checksum_mix st.checksum (v 0)
  | I.I_setjmp ->
    let buf = v 0 in
    let th = st.running in
    let fr = th.cur in
    (* Resume point: the instruction after this setjmp (ip was already
       advanced by the driver). *)
    let resume =
      st.image.Loader.block_base.(fr.findex).(fr.block) + fr.ip
    in
    let id = st.next_jmp in
    st.next_jmp <- id + 1;
    Hashtbl.replace st.jmp_ctxs id
      { jc_tid = th.t_id; jc_depth = th.depth; jc_block = fr.block;
        jc_ip = fr.ip; jc_dst = dst; jc_resume_addr = resume };
    (* jmp_buf layout: [saved PC; context id]. The saved PC is an
       implicitly-created code pointer (Section 3.2.1) — protected via the
       safe store when the configuration says so. *)
    if st.cfg.Config.enforce_code_meta then begin
      Cost.charge_safe_store st.cost st.cfg.Config.store_impl;
      Safestore.set st.store buf
        { Safestore.value = resume;
          meta = Some { lower = resume; upper = resume + 1; tid = 0;
                        kind = Safestore.Code } }
    end;
    (* cpi-crypt: the saved PC is a code pointer in ordinary memory —
       keep it as ciphertext so a jmp_buf smash garbles instead of
       redirecting. The context id is not a pointer and stays plain. *)
    let saved_pc =
      if st.cfg.Config.crypt_ptrs then begin
        Cost.add st.cost Cost.crypt_cost;
        Ptrcipher.encrypt st.key resume
      end
      else resume
    in
    plain_write st buf (m 0) saved_pc;
    plain_write st (buf + 1) (m 0) id;
    ret 0 None
  | I.I_longjmp ->
    let buf = v 0 and x = v 1 in
    let target =
      if st.cfg.Config.enforce_code_meta then begin
        Cost.charge_safe_store st.cost st.cfg.Config.store_impl;
        match Safestore.get st.store buf with
        | Some { Safestore.value; meta = Some { kind = Safestore.Code; _ } } ->
          value
        | Some _ | None -> stop (Trapped Invalid_code_pointer)
      end
      else if st.cfg.Config.crypt_ptrs then begin
        Cost.add st.cost Cost.crypt_cost;
        Ptrcipher.decrypt st.key (plain_read st buf (m 0))
      end
      else plain_read st buf (m 0)
    in
    let id = plain_read st (buf + 1) (m 0) in
    let th = st.running in
    (match Hashtbl.find_opt st.jmp_ctxs id with
     | Some ctx
       when ctx.jc_resume_addr = target && ctx.jc_tid = th.t_id
            && ctx.jc_depth <= th.depth ->
       (* Legitimate unwind: pop down to the recorded depth. The depth is
          tracked incrementally, so the unwind is O(frames popped). A
          context saved by another thread never matches: longjmp across
          threads is treated as the corruption it is. *)
       while th.depth > ctx.jc_depth do
         ignore (pop_frame th)
       done;
       let fr = th.cur in
       fr.block <- ctx.jc_block;
       fr.ip <- ctx.jc_ip;
       (match ctx.jc_dst with
        | Some d -> set_reg fr d (if x = 0 then 1 else x) None
        | None -> ())
     | Some _ | None ->
       (* Corrupted jmp_buf: control flows to the stored "PC". *)
       divert st target ~via:`Longjmp)
  | I.I_system -> stop (Hijacked "system() reached")
  | I.I_exit -> stop (Exit (v 0))
  | I.I_abort -> stop (Crash "abort() called")
  | I.I_thread_spawn ->
    (* Create a thread running [fn(arg)] over a freshly carved stack pair;
       returns the thread id. The target must be genuine code: under
       CPI/CPS it needs code-pointer provenance like any indirect call. *)
    let fv = v 0 and fm = m 0 and argv = v 1 and argm = m 1 in
    Cost.add st.cost Cost.spawn_cost;
    if st.cfg.Config.enforce_code_meta then begin
      match fm with
      | Some { kind = Safestore.Code; _ } -> ()
      | Some _ | None -> stop (Trapped Invalid_code_pointer)
    end;
    (match Loader.entry_index st.image fv with
     | -1 -> stop (Crash "thread_spawn: target is not a function entry")
     | idx ->
       let tid = Array.length st.threads in
       if tid >= Layout.max_threads then
         stop (Crash "thread_spawn: thread limit exceeded");
       let th = fresh_thread ~slide:st.slide tid in
       st.threads <- Array.append st.threads [| th |];
       st.live <- st.live + 1;
       let nf =
         push_frame st th idx ~ret_dst:None ~pushed_ret:exit_sentinel
           ~entry:(0, 0)
       in
       set_reg nf 0 argv argm;
       if not st.mt then begin
         st.mt <- true;
         st.sched_left <- Sched.quantum st.sched
       end;
       ret tid None)
  | I.I_thread_join ->
    (* Reap a finished thread's return value, or block until it finishes.
       Blocking rewinds ip so the join re-executes after wake-up. *)
    Cost.add st.cost Cost.join_cost;
    let tid = v 0 in
    if tid <= 0 || tid >= Array.length st.threads then
      stop (Crash "thread_join: invalid thread id");
    (match st.threads.(tid).status with
     | Finished rv -> ret rv None
     | Runnable | Blocked_join _ | Blocked_mutex _ ->
       let th = st.running in
       fr.ip <- fr.ip - 1;
       th.status <- Blocked_join tid;
       reschedule st)
  | I.I_mutex_lock ->
    (* Non-recursive mutex keyed by its address; contention blocks and
       retries after the owner unlocks. *)
    Cost.add st.cost Cost.mutex_cost;
    let a = v 0 in
    let th = st.running in
    (match Hashtbl.find_opt st.mutexes a with
     | None ->
       Hashtbl.replace st.mutexes a th.t_id;
       th.locks <- a :: th.locks
     | Some owner when owner = th.t_id -> stop (Crash "recursive mutex_lock")
     | Some _ ->
       fr.ip <- fr.ip - 1;
       th.status <- Blocked_mutex a;
       reschedule st)
  | I.I_mutex_unlock ->
    Cost.add st.cost Cost.mutex_cost;
    let a = v 0 in
    let th = st.running in
    (match Hashtbl.find_opt st.mutexes a with
     | Some owner when owner = th.t_id ->
       Hashtbl.remove st.mutexes a;
       th.locks <- List.filter (fun x -> x <> a) th.locks;
       (* Wake every waiter; the scheduler decides who retries first. *)
       for i = 0 to Array.length st.threads - 1 do
         let o = st.threads.(i) in
         match o.status with
         | Blocked_mutex b when b = a -> o.status <- Runnable
         | _ -> ()
       done
     | Some _ | None -> stop (Crash "mutex_unlock: not the owner"))
  | I.I_atomic_add ->
    (* Atomic fetch-and-add on shared memory: one synchronised RMW, so the
       race detector is muted for its two accesses. *)
    Cost.add st.cost Cost.atomic_cost;
    Cost.charge_mem st.cost ~instrumented:false (Cost.load_base + Cost.store_base);
    let a = v 0 and d = v 1 in
    st.race_mute <- true;
    let old = plain_read st a (m 0) in
    plain_write st a (m 0) (old + d);
    st.race_mute <- false;
    ret old None

(* ---------- Loads and stores ---------- *)

(* The [Regular] arms, shared by [do_load]/[do_store] and the compiled
   closures of unchecked register-addressed accesses. The region
   classification is fused with the safe-stack metadata shadow (see
   [shadow] above), so the address is classified once and the access
   never allocates. *)

let[@inline] locality st fr a =
  if fr.penalize_stack
     && a land 7 = 0
     && a <= Layout.stack_top + st.slide
     && a > Layout.stack_limit + st.slide
  then Cost.add st.cost Cost.locality_penalty

let[@inline] load_regular st fr dst a ma =
  Cost.charge_mem st.cost ~instrumented:false Cost.load_base;
  locality st fr a;
  race_data st a ~write:false;
  let a' = a - st.slide in
  if a' < Layout.safe_base then begin
    if a' < Layout.null_guard then stop (Crash "null-page access");
    set_reg fr dst (Mem.read st.mem a) None
  end
  else if a' < Layout.safe_end then begin
    check_safe_access a ma ~size:1;
    set_reg fr dst (Mem.read st.mem a) (Safestore.Paged.get st.shadow a)
  end
  else if a' >= Layout.code_base && a' < Layout.code_end then
    set_reg fr dst 0xC0DE None
  else set_reg fr dst (Mem.read st.mem a) None

let[@inline] store_regular st fr a ma vv vm =
  Cost.charge_mem st.cost ~instrumented:false Cost.store_base;
  locality st fr a;
  race_data st a ~write:true;
  let a' = a - st.slide in
  if a' < Layout.safe_base then begin
    if a' < Layout.null_guard then stop (Crash "null-page access");
    charge_sfi st;
    Mem.write st.mem a vv
  end
  else if a' < Layout.safe_end then begin
    check_safe_access a ma ~size:1;
    Mem.write st.mem a vv;
    Safestore.Paged.set st.shadow a vm
  end
  else begin
    if a' >= Layout.code_base && a' < Layout.code_end then
      stop (Crash "write to code segment");
    charge_sfi st;
    Mem.write st.mem a vv
  end

(* Each arm writes the destination register directly instead of returning a
   [(value, meta)] pair: the regular-load path must stay allocation-free. *)
let do_load st fr dst ~what ~universal addr_op where checked =
  let a = eval_v fr addr_op in
  let ma = eval_m fr addr_op in
  let size = 1 in
  if checked then
    check_deref st a ma ~size ~what;
  match where with
  | I.Regular -> load_regular st fr dst a ma
  | I.SafeFull | I.SafeDebug | I.SafeData ->
    Cost.charge_safe_store st.cost st.cfg.Config.store_impl;
    Cost.charge_mem st.cost ~instrumented:true 0;
    race_meta st a ~write:false;
    (match Safestore.get st.store a with
     | Some e ->
       if where = I.SafeDebug then begin
         (* debug mode: regular mirror must match *)
         let mirror = Mem.read st.mem a in
         if mirror <> e.Safestore.value then stop (Trapped Debug_mismatch)
       end;
       set_reg fr dst e.Safestore.value e.Safestore.meta
     | None ->
       (* No protected value here: universal pointer currently holding a
          regular value; fall back to the regular region. *)
       Cost.add st.cost Cost.load_base;
       set_reg fr dst (plain_read st a ma) None)
  | I.SafeValue ->
    Cost.charge_mem st.cost ~instrumented:true
      (Safestore.lookup_cost st.cfg.Config.store_impl + 2
       + (if universal then 1 else 0));
    race_meta st a ~write:false;
    (match Safestore.get st.store a with
     | Some e ->
       set_reg fr dst e.Safestore.value
         (Some { lower = e.Safestore.value; upper = e.Safestore.value + 1;
                 tid = 0; kind = Safestore.Code })
     | None -> set_reg fr dst (plain_read st a ma) None)
  | I.RegularMeta ->
    Cost.charge_mem st.cost ~instrumented:true Cost.load_base;
    Cost.charge_safe_store st.cost st.cfg.Config.store_impl;
    race_meta st a ~write:false;
    let v = plain_read st a ma in
    let m =
      match Safestore.get st.store a with
      | Some e when e.Safestore.value = v -> e.Safestore.meta
      | Some _ | None -> None
    in
    set_reg fr dst v m
  | I.Crypt ->
    (* cpi-crypt: the cell holds ciphertext in the regular region; decrypt
       with the per-run key on the way into the register. A tampered cell
       decrypts to a garbled value with no metadata — using it as a call
       or jump target traps under DEP instead of hijacking. *)
    Cost.charge_mem st.cost ~instrumented:true
      (Cost.load_base + Cost.crypt_cost);
    set_reg fr dst (Ptrcipher.decrypt st.key (plain_read st a ma)) None

(* The empty bounds SafeData stores with a value that has no metadata. *)
let degenerate_data = Some { lower = 0; upper = 0; tid = 0; kind = Safestore.Data }

let do_store st fr ~what ~universal v_op addr_op where checked =
  let vv = eval_v fr v_op in
  let vm = eval_m fr v_op in
  let a = eval_v fr addr_op in
  let ma = eval_m fr addr_op in
  if checked then check_deref st a ma ~size:1 ~what;
  match where with
  | I.Regular -> store_regular st fr a ma vv vm
  | I.SafeFull | I.SafeDebug ->
    Cost.charge_safe_store st.cost st.cfg.Config.store_impl;
    Cost.charge_mem st.cost ~instrumented:true 0;
    race_meta st a ~write:true;
    (match vm with
     | Some _ ->
       Safestore.set st.store a { Safestore.value = vv; meta = vm };
       if where = I.SafeDebug then begin
         Cost.add st.cost Cost.store_base;
         Mem.write st.mem a vv   (* mirror copy for non-instrumented readers *)
       end
     | None ->
       (* Value without valid metadata (e.g. cast from a plain integer):
          store in the regular region with an invalidated safe entry. *)
       Safestore.clear_at st.store a;
       Cost.add st.cost Cost.store_base;
       plain_write st a ma vv)
  | I.SafeValue ->
    Cost.charge_mem st.cost ~instrumented:true
      (Safestore.lookup_cost st.cfg.Config.store_impl + 2
       + (if universal then 1 else 0));
    race_meta st a ~write:true;
    (match vm with
     | Some { kind = Safestore.Code; _ } ->
       Safestore.set st.store a
         { Safestore.value = vv;
           meta = Some { lower = vv; upper = vv + 1; tid = 0;
                         kind = Safestore.Code } }
     | Some _ | None ->
       Safestore.clear_at st.store a;
       Cost.add st.cost Cost.store_base;
       plain_write st a ma vv)
  | I.SafeData ->
    (* annotated sensitive data: the value always lives in the safe store,
       with metadata when the value has any and degenerate bounds when it
       is plain data *)
    Cost.charge_safe_store st.cost st.cfg.Config.store_impl;
    Cost.charge_mem st.cost ~instrumented:true 0;
    race_meta st a ~write:true;
    Safestore.set st.store a
      { Safestore.value = vv;
        meta = (match vm with Some _ -> vm | None -> degenerate_data) }
  | I.RegularMeta ->
    Cost.charge_mem st.cost ~instrumented:true Cost.store_base;
    Cost.charge_safe_store st.cost st.cfg.Config.store_impl;
    race_meta st a ~write:true;
    plain_write st a ma vv;
    Safestore.set st.store a { Safestore.value = vv; meta = vm }
  | I.Crypt ->
    (* cpi-crypt: encrypt the value in place; no metadata survives the
       cipher (bounds/provenance are deliberately not modelled — the
       scheme trades them for the no-safe-region layout). *)
    Cost.charge_mem st.cost ~instrumented:true
      (Cost.store_base + Cost.crypt_cost);
    plain_write st a ma (Ptrcipher.encrypt st.key vv)

(* ---------- Compilation ---------- *)

let exec_binop op a b =
  match (op : I.binop) with
  | I.Add -> a + b
  | I.Sub -> a - b
  | I.Mul -> a * b
  | I.Div -> if b = 0 then stop (Trapped Division_by_zero) else a / b
  | I.Rem -> if b = 0 then stop (Trapped Division_by_zero) else a mod b
  | I.And -> a land b
  | I.Or -> a lor b
  | I.Xor -> a lxor b
  | I.Shl -> a lsl (b land 63)
  | I.Shr -> a asr (b land 63)

let exec_cmp op a b =
  let r =
    match (op : I.cmpop) with
    | I.Eq -> a = b
    | I.Ne -> a <> b
    | I.Lt -> a < b
    | I.Le -> a <= b
    | I.Gt -> a > b
    | I.Ge -> a >= b
  in
  if r then 1 else 0

(* Pointer arithmetic keeps the based-on metadata of its one pointer
   operand: [p + n], [n + p] and [p - n]. Anything else, including
   pointer + pointer, yields a plain integer. The result is one of the
   operands' own options, so propagation never allocates. *)
let bin_meta (op : I.binop) am bm =
  match op with
  | I.Add -> if am == None then bm else if bm == None then am else None
  | I.Sub -> if bm == None then am else None
  | I.Mul | I.Div | I.Rem | I.And | I.Or | I.Xor | I.Shl | I.Shr -> None

let[@inline] reg fr r = Array.unsafe_get fr.regs r

let compile_bin dst (op : I.binop) (l : operand) r : op =
  match op, l, r with
  | I.Add, Reg a, Reg b ->
    fun st fr ->
      Cost.add st.cost Cost.alu;
      let rm = fr.rmeta in
      let am = Array.unsafe_get rm a and bm = Array.unsafe_get rm b in
      Array.unsafe_set fr.regs dst
        (Array.unsafe_get fr.regs a + Array.unsafe_get fr.regs b);
      set_m rm dst (if am == None then bm else if bm == None then am else None)
  | I.Add, Reg a, Const (k, None) | I.Add, Const (k, None), Reg a
  | I.Sub, Reg a, Const (k, None) ->
    let k = if op = I.Sub then -k else k in
    fun st fr ->
      Cost.add st.cost Cost.alu;
      Array.unsafe_set fr.regs dst (Array.unsafe_get fr.regs a + k);
      set_m fr.rmeta dst (Array.unsafe_get fr.rmeta a)
  | I.Sub, Reg a, Reg b ->
    fun st fr ->
      Cost.add st.cost Cost.alu;
      let rm = fr.rmeta in
      let am = Array.unsafe_get rm a and bm = Array.unsafe_get rm b in
      Array.unsafe_set fr.regs dst
        (Array.unsafe_get fr.regs a - Array.unsafe_get fr.regs b);
      set_m rm dst (if bm == None then am else None)
  | I.Mul, Reg a, Reg b ->
    fun st fr ->
      Cost.add st.cost Cost.alu;
      Array.unsafe_set fr.regs dst
        (Array.unsafe_get fr.regs a * Array.unsafe_get fr.regs b);
      set_m fr.rmeta dst None
  | I.Mul, Reg a, Const (k, _) | I.Mul, Const (k, _), Reg a ->
    fun st fr ->
      Cost.add st.cost Cost.alu;
      Array.unsafe_set fr.regs dst (Array.unsafe_get fr.regs a * k);
      set_m fr.rmeta dst None
  | (I.Add | I.Sub), _, _ ->
    fun st fr ->
      Cost.add st.cost Cost.alu;
      let v = exec_binop op (eval_v fr l) (eval_v fr r) in
      set_reg fr dst v (bin_meta op (eval_m fr l) (eval_m fr r))
  | _, Reg a, Reg b ->
    fun st fr ->
      Cost.add st.cost Cost.alu;
      let v = exec_binop op (reg fr a) (reg fr b) in
      set_reg fr dst v None
  | _, Reg a, Const (k, _) ->
    fun st fr ->
      Cost.add st.cost Cost.alu;
      set_reg fr dst (exec_binop op (reg fr a) k) None
  | _, _, _ ->
    fun st fr ->
      Cost.add st.cost Cost.alu;
      set_reg fr dst (exec_binop op (eval_v fr l) (eval_v fr r)) None

let[@inline] set_flag st fr dst c =
  Cost.add st.cost Cost.alu;
  Array.unsafe_set fr.regs dst (if c then 1 else 0);
  set_m fr.rmeta dst None

let compile_cmp dst (op : I.cmpop) (l : operand) r : op =
  match op, l, r with
  | I.Eq, Reg a, Reg b ->
    fun st fr -> set_flag st fr dst (reg fr a = reg fr b)
  | I.Ne, Reg a, Reg b ->
    fun st fr -> set_flag st fr dst (reg fr a <> reg fr b)
  | I.Lt, Reg a, Reg b ->
    fun st fr -> set_flag st fr dst (reg fr a < reg fr b)
  | I.Le, Reg a, Reg b ->
    fun st fr -> set_flag st fr dst (reg fr a <= reg fr b)
  | I.Gt, Reg a, Reg b ->
    fun st fr -> set_flag st fr dst (reg fr a > reg fr b)
  | I.Ge, Reg a, Reg b ->
    fun st fr -> set_flag st fr dst (reg fr a >= reg fr b)
  | I.Eq, Reg a, Const (k, _) ->
    fun st fr -> set_flag st fr dst (reg fr a = k)
  | I.Ne, Reg a, Const (k, _) ->
    fun st fr -> set_flag st fr dst (reg fr a <> k)
  | I.Lt, Reg a, Const (k, _) ->
    fun st fr -> set_flag st fr dst (reg fr a < k)
  | I.Le, Reg a, Const (k, _) ->
    fun st fr -> set_flag st fr dst (reg fr a <= k)
  | I.Gt, Reg a, Const (k, _) ->
    fun st fr -> set_flag st fr dst (reg fr a > k)
  | I.Ge, Reg a, Const (k, _) ->
    fun st fr -> set_flag st fr dst (reg fr a >= k)
  | _, _, _ ->
    fun st fr ->
      Cost.add st.cost Cost.alu;
      set_reg fr dst (exec_cmp op (eval_v fr l) (eval_v fr r)) None

(* A constant address in the plain regular region (a global): not the
   null page, the safe region or code, and not a stack word the locality
   model could charge. Its accesses skip the region classification. *)
let plain_const (image : Loader.image) a =
  let u = a - image.Loader.slide in
  u >= Layout.null_guard && u < Layout.stack_limit

(* Narrow the based-on bounds to a sub-object (case iii). *)
let narrow m a fsize =
  match m with
  | Some mm when mm.kind = Safestore.Data ->
    Some { mm with lower = a; upper = a + fsize }
  | other -> other

let rec gep_walk fr dst path k a m =
  if k = Array.length path then set_reg fr dst a m
  else
    match Array.unsafe_get path k with
    | Field (off, fsize) ->
      let a = a + off in
      gep_walk fr dst path (k + 1) a (narrow m a fsize)
    | Index (elem_size, idx_op) ->
      gep_walk fr dst path (k + 1) (a + (eval_v fr idx_op * elem_size)) m

(* The same walk over constant steps, at compile time. *)
let gep_const path a m =
  Array.fold_left
    (fun (a, m) step ->
      match step with
      | Field (off, fsize) -> (a + off, narrow m (a + off) fsize)
      | Index (elem_size, Const (k, _)) -> (a + (k * elem_size), m)
      | Index (_, Reg _) -> invalid_arg "gep_const")
    (a, m) path

let compile_gep dst (base : operand) path : op =
  let cost = Cost.alu * Array.length path in
  let consts =
    Array.for_all
      (function Field _ | Index (_, Const _) -> true
              | Index (_, Reg _) -> false)
      path
  in
  match base, path with
  | Const (a, m), _ when consts ->
    (* A constant base (a global) with constant steps: the address and
       its narrowed metadata are computed once, here. *)
    let a, m = gep_const path a m in
    fun st fr ->
      Cost.add st.cost cost;
      set_reg fr dst a m
  | Const (a, m), [| Index (es, Reg i) |] ->
    fun st fr ->
      Cost.add st.cost cost;
      Array.unsafe_set fr.regs dst (a + (Array.unsafe_get fr.regs i * es));
      set_m fr.rmeta dst m
  | Reg b, [| Index (es, Reg i) |] ->
    fun st fr ->
      Cost.add st.cost cost;
      Array.unsafe_set fr.regs dst
        (Array.unsafe_get fr.regs b + (Array.unsafe_get fr.regs i * es));
      set_m fr.rmeta dst (Array.unsafe_get fr.rmeta b)
  | Reg b, [| Index (es, Const (k, _)) |] ->
    let off = k * es in
    fun st fr ->
      Cost.add st.cost cost;
      Array.unsafe_set fr.regs dst (Array.unsafe_get fr.regs b + off);
      set_m fr.rmeta dst (Array.unsafe_get fr.rmeta b)
  | Reg b, [| Field (off, fsize) |] ->
    fun st fr ->
      Cost.add st.cost cost;
      let a = Array.unsafe_get fr.regs b + off in
      let m = narrow (Array.unsafe_get fr.rmeta b) a fsize in
      set_reg fr dst a m
  | _ ->
    fun st fr ->
      Cost.add st.cost cost;
      gep_walk fr dst path 0 (eval_v fr base) (eval_m fr base)

(* The loads and stores the compiler specialises are the unchecked
   [Regular] ones through a register, or from a global's constant
   address; the rest compile to [do_load]/[do_store]. *)
let compile_load image dst ty addr (where : I.where) checked : op =
  match addr, where, checked with
  | Reg r, I.Regular, false ->
    fun st fr ->
      load_regular st fr dst (Array.unsafe_get fr.regs r)
        (Array.unsafe_get fr.rmeta r)
  | Const (a, _), I.Regular, false when plain_const image a ->
    fun st fr ->
      Cost.charge_mem st.cost ~instrumented:false Cost.load_base;
      race_data st a ~write:false;
      set_reg fr dst (Mem.read st.mem a) None
  | _ ->
    let what = Ty.to_string ty and universal = Ty.is_universal_pointer ty in
    fun st fr -> do_load st fr dst ~what ~universal addr where checked

let compile_store image ty v addr (where : I.where) checked : op =
  match v, addr, where, checked with
  | Reg x, Reg r, I.Regular, false ->
    fun st fr ->
      store_regular st fr (Array.unsafe_get fr.regs r)
        (Array.unsafe_get fr.rmeta r) (Array.unsafe_get fr.regs x)
        (Array.unsafe_get fr.rmeta x)
  | Const (k, km), Reg r, I.Regular, false ->
    fun st fr ->
      store_regular st fr (Array.unsafe_get fr.regs r)
        (Array.unsafe_get fr.rmeta r) k km
  | Reg x, Const (a, _), I.Regular, false when plain_const image a ->
    fun st fr ->
      Cost.charge_mem st.cost ~instrumented:false Cost.store_base;
      race_data st a ~write:true;
      charge_sfi st;
      Mem.write st.mem a (Array.unsafe_get fr.regs x)
  | _ ->
    let what = Ty.to_string ty and universal = Ty.is_universal_pointer ty in
    fun st fr -> do_store st fr ~what ~universal v addr where checked

(* Compiling a function refuses what its code could not run: a register
   outside its file, a jump to a block it does not have, a name the image
   does not define. Each is an [Invalid_argument] naming the function and
   the target, raised when the function is first entered. *)
let check_reg (fn : Prog.func) r =
  if r < 0 || r >= fn.Prog.nregs then
    invalid_arg
      (Printf.sprintf "Interp: register r%d out of range in %s (nregs %d)" r
         fn.Prog.fname fn.Prog.nregs);
  r

let check_block (fn : Prog.func) b =
  let n = Array.length fn.Prog.blocks in
  if b < 0 || b >= n then
    invalid_arg
      (Printf.sprintf "Interp: block b%d out of range in %s (blocks %d)" b
         fn.Prog.fname n);
  b

let unknown (fn : Prog.func) what name =
  invalid_arg
    (Printf.sprintf "Interp: unknown %s %s in %s" what name fn.Prog.fname)

let fn_index (image : Loader.image) fn name =
  match Hashtbl.find_opt image.Loader.fn_index name with
  | Some idx -> idx
  | None -> unknown fn "function" name

let entry_addr (image : Loader.image) fn name =
  image.Loader.entries.(fn_index image fn name)

(* Resolve an operand of [fn]: immediates and null become bare constants,
   global and function references (address, metadata) constants; a
   global's bounds start at its address. The metadata is built once and
   shared by every execution; it is immutable, so sharing is safe. *)
let operand (image : Loader.image) fn (o : I.operand) =
  match o with
  | I.Reg r -> Reg (check_reg fn r)
  | I.Imm n -> Const (n, None)
  | I.Nullp -> Const (0, None)
  | I.Glob g ->
    let lo, hi =
      match Hashtbl.find_opt image.Loader.global_bounds g with
      | Some bounds -> bounds
      | None -> unknown fn "global" g
    in
    Const (lo, Some { lower = lo; upper = hi; tid = 0; kind = Safestore.Data })
  | I.Fun f ->
    let a = entry_addr image fn f in
    Const (a, Some { lower = a; upper = a + 1; tid = 0; kind = Safestore.Code })

(* Compile one instruction of [fn]. [opr] resolves its operands and [chk]
   checks its registers; [ret_addr] is the code address of the
   instruction after it, the return address a call there pushes.
   [where], [checked] and the cfi fields are mutable in the IR: they are
   read here, once, which is why a program must not change after
   [Loader.load]. *)
let compile_instr image fn (layout : Loader.frame_layout) opr chk ret_addr
    (i : I.instr) : op =
  match i with
  | I.Alloca { dst; _ } ->
    let dst = chk dst in
    let sl = Hashtbl.find layout.Loader.fl_slots dst in
    let on_safe = sl.Loader.sl_on_safe and offset = sl.Loader.sl_offset
    and size = sl.Loader.sl_size in
    fun st fr ->
      Cost.add st.cost Cost.alu;
      let base = if on_safe then fr.base_s else fr.base_r in
      let addr = base - offset in
      set_reg fr dst addr
        (Some { lower = addr; upper = addr + size; tid = 0;
                kind = Safestore.Data })
  | I.Bin { dst; op; l; r } -> compile_bin (chk dst) op (opr l) (opr r)
  | I.Cmp { dst; op; l; r } -> compile_cmp (chk dst) op (opr l) (opr r)
  | I.Load { dst; ty; addr; where; checked } ->
    compile_load image (chk dst) ty (opr addr) where checked
  | I.Store { ty; v; addr; where; checked } ->
    compile_store image ty (opr v) (opr addr) where checked
  | I.Gep { dst; base_ty = _; base; path } ->
    let tenv = image.Loader.prog.Prog.tenv in
    let step = function
      | I.Field (_, off, fsize) -> Field (off, fsize)
      | I.Index (ty, idx) -> Index (Ty.size_of tenv ty, opr idx)
    in
    compile_gep (chk dst) (opr base) (Array.of_list (List.map step path))
  | I.Cast { dst; v; _ } ->
    let dst = chk dst in
    (match opr v with
     | Reg x ->
       fun st fr ->
         Cost.add st.cost Cost.alu;
         set_reg fr dst (Array.unsafe_get fr.regs x)
           (Array.unsafe_get fr.rmeta x)
     | Const (k, km) ->
       fun st fr ->
         Cost.add st.cost Cost.alu;
         set_reg fr dst k km)
  | I.Call { dst; callee; args; fty = _; cfi_checked; cfi_set } ->
    let dst = Option.map chk dst and args = Array.of_list (List.map opr args) in
    (match callee with
     | I.Direct name ->
       (* The callee is compiled when the call first runs, not here, so
          compiling a function never cascades down its calls. *)
       let idx = fn_index image fn name in
       let nargs = Array.length args in
       fun st fr ->
         Cost.add st.cost nargs;
         invoke st fr dst args ret_addr idx
     | I.Indirect o ->
       let o = opr o in
       (* The cfi-type target set, as sorted entry addresses. *)
       let cfi_set =
         Option.map
           (fun names ->
             let set =
               Array.of_list (List.map (entry_addr image fn) names)
             in
             Array.sort compare set;
             set)
           cfi_set
       in
       fun st fr -> do_call st fr dst o args cfi_checked cfi_set ret_addr)
  | I.Intrin { dst; op; args } ->
    let dst = Option.map chk dst and args = Array.of_list (List.map opr args) in
    fun st fr -> do_intrin st fr dst op args

let[@inline] goto fr b =
  fr.block <- b;
  fr.ip <- 0

let[@inline] switch_cost st = Cost.add st.cost (Cost.branch + 1)

(* A switch jumps through a dense table when its case values span at
   most [4 * cases + 8] slots (a pathological sparse switch wastes at
   most that much), through a hashtable otherwise. Both take a value's
   first binding, as [List.assoc_opt] over the cases would. *)
let compile_switch o cases dflt : op =
  match cases with
  | [] -> fun st fr -> switch_cost st; goto fr dflt
  | (v0, _) :: _ ->
    let n = List.length cases in
    let lo = List.fold_left (fun a (v, _) -> min a v) v0 cases in
    let hi = List.fold_left (fun a (v, _) -> max a v) v0 cases in
    (* [hi - lo] wraps negative when the span exceeds [max_int]. *)
    let d = hi - lo in
    if d >= 0 && d < (4 * n) + 8 then begin
      let targets = Array.make (d + 1) dflt in
      List.iter (fun (v, b) -> targets.(v - lo) <- b) (List.rev cases);
      fun st fr ->
        switch_cost st;
        let i = eval_v fr o - lo in
        goto fr (if i >= 0 && i <= d then Array.unsafe_get targets i else dflt)
    end
    else begin
      let tbl = Hashtbl.create (2 * n) in
      List.iter
        (fun (v, b) -> if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v b)
        cases;
      fun st fr ->
        switch_cost st;
        goto fr (try Hashtbl.find tbl (eval_v fr o) with Not_found -> dflt)
    end

let compile_term opr chkb (t : I.term) : op =
  match t with
  | I.Ret None -> fun st _ -> do_ret st 0 None
  | I.Ret (Some o) ->
    (match opr o with
     | Reg r ->
       fun st fr ->
         do_ret st (Array.unsafe_get fr.regs r) (Array.unsafe_get fr.rmeta r)
     | Const (k, km) -> fun st _ -> do_ret st k km)
  | I.Br (c, bt, bf) ->
    let bt = chkb bt and bf = chkb bf in
    (match opr c with
     | Reg c ->
       fun st fr ->
         Cost.add st.cost Cost.branch;
         goto fr (if Array.unsafe_get fr.regs c <> 0 then bt else bf)
     | Const (k, _) ->
       let b = if k <> 0 then bt else bf in
       fun st fr ->
         Cost.add st.cost Cost.branch;
         goto fr b)
  | I.Jmp b ->
    let b = chkb b in
    fun st fr ->
      Cost.add st.cost Cost.branch;
      goto fr b
  | I.Switch (o, cases, dflt) ->
    compile_switch (opr o)
      (List.map (fun (v, b) -> (v, chkb b)) cases)
      (chkb dflt)
  | I.Unreachable -> fun _ _ -> stop (Crash "unreachable executed")

(* A stretch ends before a call or an intrinsic (they push
   frames, block, spawn or reschedule) and takes in the terminator only
   when it stays in the frame. [base] is the block's code address. *)
let compile_block image fn layout opr chk chkb base (b : Prog.block) =
  let n = Array.length b.Prog.instrs in
  let ops =
    Array.append
      (Array.mapi
         (fun ip i ->
           compile_instr image fn layout opr chk (base + ip + 1) i)
         b.Prog.instrs)
      [| compile_term opr chkb b.Prog.term |]
  in
  let span = Array.make (n + 1) 0 in
  (match b.Prog.term with
   | I.Br _ | I.Jmp _ | I.Switch _ -> span.(n) <- 1
   | I.Ret _ | I.Unreachable -> ());
  for ip = n - 1 downto 0 do
    match b.Prog.instrs.(ip) with
    | I.Call _ | I.Intrin _ -> ()
    | I.Alloca _ | I.Bin _ | I.Cmp _ | I.Load _ | I.Store _ | I.Gep _
    | I.Cast _ ->
      span.(ip) <- span.(ip + 1) + 1
  done;
  { ops; span }

let () =
  compile_fwd :=
    fun image idx layout ->
      let fn = image.Loader.funcs.(idx) in
      let opr = operand image fn and chk = check_reg fn
      and chkb = check_block fn in
      let bases = image.Loader.block_base.(idx) in
      { nregs = fn.Prog.nregs;
        blocks =
          Array.mapi
            (fun b blk ->
              compile_block image fn layout opr chk chkb bases.(b) blk)
            fn.Prog.blocks }

(* ---------- Fault injection ---------- *)

(* Faults go through the same plain access path the attacker-facing
   machine enforces: null page crashes, the safe region demands in-bounds
   provenance (so tampering attempts trap as [Isolation_violation]), the
   code segment is unwritable. [Store_desync]/[Meta_drop] manipulate the
   safe store directly and therefore model an attacker who already
   bypassed isolation — campaign classification treats them separately. *)
let apply_fault st = function
  | Flip_bit { addr; bit } ->
    let v = plain_read st addr None in
    plain_write st addr None (v lxor (1 lsl (bit land 62)))
  | Arb_write { addr; value } -> plain_write st addr None value
  (* Keyed backends (cpi-crypt) have an empty safe store: both metadata
     attacks below hit [None]/no-op — dropping metadata is not the same
     as leaking the key, which is exactly the spectrum invariant the
     fault campaign checks. *)
  | Store_desync { addr; delta } ->
    (match Safestore.get st.store addr with
     | Some e -> Safestore.set st.store addr { e with Safestore.value = e.Safestore.value + delta }
     | None -> ())
  | Meta_drop { addr } -> Safestore.clear_at st.store addr
  | Stall { cycles } ->
    (* An availability fault, not a corruption: the machine loses [cycles]
       simulated cycles to an external stall (I/O hiccup, page fault
       storm). Memory and metadata are untouched. *)
    Cost.add st.cost (max 0 cycles)
  | Worker_kill { tid } ->
    (* Asynchronously kill one spawned thread, as a worker crash would:
       the thread finishes with value -1 (joiners observe it), any mutex
       it holds stays held — precisely the hazard a resilient server must
       survive. Killing the main thread kills the process; a tid that is
       invalid or already finished is a no-op. *)
    if tid = 0 then stop (Crash "worker-kill: main thread killed")
    else if tid > 0 && tid < Array.length st.threads then begin
      let th = st.threads.(tid) in
      match th.status with
      | Finished _ -> ()
      | Runnable | Blocked_join _ | Blocked_mutex _ -> finish_thread st th (-1)
    end

(* Fire every fault scheduled for the current step, then re-arm the
   sentinel. [apply_fault] may legitimately end the run (Machine_stop). *)
let inject_faults st =
  let n = Array.length st.faults in
  let at_current (s, _) = st.fuel0 - s = st.fuel in
  (* Faults model external corruption, not program accesses: they must
     not feed the race detector. [apply_fault] may end the run, so the
     mute is restored on both paths. *)
  st.race_mute <- true;
  Fun.protect
    ~finally:(fun () -> st.race_mute <- false)
    (fun () ->
      while st.fault_pos < n && at_current st.faults.(st.fault_pos) do
        let (_, f) = st.faults.(st.fault_pos) in
        st.fault_pos <- st.fault_pos + 1;
        apply_fault st f
      done);
  st.next_fault_fuel <-
    if st.fault_pos < n then st.fuel0 - fst st.faults.(st.fault_pos)
    else min_int

(* ---------- Driver ---------- *)

(* One turn of the step semantics. The tests come first, once, in a fixed
   order (fuel, then the faults scheduled for this step, then preemption);
   each may end the run or switch threads, so the frame is read only after
   them. The turn then runs [n] ops: the stretch at [ip] ([span.(ip)],
   or the one op there where no stretch starts), clipped to the fuel
   left, to the steps before the next scheduled fault and to the quantum
   left, so no boundary falls inside it. Fuel is counted per op, so a
   trap reports the step it happened on. A turn of more than one op never
   calls, returns or switches threads, so [fr] stays the running frame. *)
let rec run_loop st =
  let fuel = st.fuel in
  if fuel <= 0 then stop Fuel_exhausted;
  if fuel = st.next_fault_fuel then inject_faults st;
  (* Preemption: the step on which the scheduler preempts is not charged
     to the new quantum, hence the one added back. *)
  if st.mt && st.sched_left <= 0 then begin
    reschedule st;
    st.sched_left <- st.sched_left + 1
  end;
  let fr = st.running.cur in
  let bc = fr.code.(fr.block) in
  let ip = fr.ip in
  let n = Array.unsafe_get bc.span ip in
  (* Clipped with int compares: [min] is polymorphic. *)
  let n = if n = 0 then 1 else n in
  let n = if fuel < n then fuel else n in
  let n =
    if st.next_fault_fuel > fuel - n then fuel - st.next_fault_fuel else n
  in
  let n = if st.mt && st.sched_left < n then st.sched_left else n in
  if st.mt then st.sched_left <- st.sched_left - n;
  (* Set before the first op: a call or intrinsic sees its caller already
     past it, and a terminator's jump overrides it. *)
  fr.ip <- ip + n;
  let ops = bc.ops in
  for i = ip to ip + n - 1 do
    st.fuel <- st.fuel - 1;
    (Array.unsafe_get ops i) st fr
  done;
  run_loop st

(* ---------- Top level ---------- *)

let create ?(input = [||]) ?(fuel = 60_000_000) ?(faults = [])
    ?(sched_seed = 0) (image : Loader.image) =
  let mem = Mem.create () in
  let store = Safestore.create image.Loader.cfg.Config.store_impl in
  let slide = image.Loader.slide in
  let heap =
    Heap.create mem ~base:(Layout.heap_base + slide) ~limit:(Layout.heap_limit + slide)
  in
  Loader.init_globals image mem store;
  (* cpi-crypt: derive the per-run pointer-cipher key from the scheduler
     seed (part of the run's deterministic identity) and re-encrypt the
     global initializer cells the crypt pass flagged — the loader writes
     plaintext, but crypt-routed loads expect ciphertext. Zero cells are
     fixed points of the cipher, so only flagged words need touching. *)
  let cfg = image.Loader.cfg in
  let key =
    if cfg.Config.crypt_ptrs then Ptrcipher.key_of_seed sched_seed else 0
  in
  if key <> 0 then
    List.iter
      (fun (gname, mask) ->
        match Hashtbl.find_opt image.Loader.global_addr gname with
        | None -> ()
        | Some base ->
          Array.iteri
            (fun i flagged ->
              if flagged then
                Mem.write mem (base + i)
                  (Ptrcipher.encrypt key (Mem.read mem (base + i))))
            mask)
      cfg.Config.crypt_cells;
  let faults =
    (* Steps past the fuel budget can never fire; drop them up front so
       the sentinel arithmetic stays total. Stable sort keeps the plan's
       ordering for same-step faults. *)
    let a =
      Array.of_list (List.filter (fun (s, _) -> s >= 0 && s < fuel) faults)
    in
    Array.stable_sort (fun (s1, _) (s2, _) -> compare s1 s2) a;
    a
  in
  let next_fault_fuel =
    if Array.length faults > 0 then fuel - fst faults.(0) else min_int
  in
  let main_thread = fresh_thread ~slide 0 in
  { image; cfg; slide; key; mem; store; heap; cost = Cost.create ();
    running = main_thread; threads = [| main_thread |];
    sched = Sched.create ~seed:sched_seed; mt = false; sched_left = max_int;
    live = 1;
    mutexes = Hashtbl.create 8; race = Race.create (); race_mute = false;
    fuel0 = fuel; input; input_pos = 0; out = Buffer.create 256; checksum = 0; fuel;
    jmp_ctxs = Hashtbl.create 8; next_jmp = 1;
    shadow = Safestore.Paged.create ~page_bits:8;
    faults; fault_pos = 0; next_fault_fuel }

let result_of st outcome =
  { outcome;
    cycles = st.cost.Cost.cycles;
    instrs = st.fuel0 - st.fuel;
    mem_ops = st.cost.Cost.mem_ops;
    instrumented_mem_ops = st.cost.Cost.instrumented_mem_ops;
    output = Buffer.contents st.out;
    checksum = st.checksum;
    mem_footprint = Mem.footprint_words st.mem;
    store_footprint =
      Safestore.footprint_words ~entry_words:st.cfg.Config.cps_entry_words st.store;
    store_accesses = Safestore.access_count st.store;
    heap_peak = st.heap.Heap.peak_words;
    threads = Array.length st.threads;
    ctx_switches = st.cost.Cost.ctx_switches;
    races = Race.count st.race;
    race_details = Race.reports st.race }

(** Run [main] to completion, then return the machine's memory and
    safe-store pages to the domain's pools ([Mem.clear],
    [Safestore.reset]) once the result has read their footprints. *)
let run ?input ?fuel ?faults ?sched_seed (image : Loader.image) : result =
  if not (Prog.has_func image.Loader.prog "main") then
    invalid_arg "Interp.run: program has no main";
  let st = create ?input ?fuel ?faults ?sched_seed image in
  let main = Hashtbl.find image.Loader.fn_index "main" in
  (* A synthetic outermost frame is not needed: push main, its parameters
     zero, with the exit sentinel as its return address. *)
  let outcome =
    try
      ignore
        (push_frame st st.running main ~ret_dst:None
           ~pushed_ret:exit_sentinel ~entry:(0, 0));
      run_loop st
    with Machine_stop outcome -> outcome
  in
  let r = result_of st outcome in
  Mem.clear st.mem;
  Safestore.reset st.store;
  r

(** Compile-free convenience used everywhere in tests and benches. *)
let run_program ?input ?fuel ?faults ?sched_seed (prog : Prog.t)
    (cfg : Config.t) : result =
  run ?input ?fuel ?faults ?sched_seed (Loader.load prog cfg)
