(** The IR interpreter: a word-granular machine with based-on metadata.

    Registers optionally carry based-on metadata (bounds + temporal id +
    kind); safe-store-routed memory operations persist it, plain operations
    drop it, checked operations verify it. Every instruction has a code
    address, so a corrupted return address or function pointer "jumps"
    exactly where the attacker pointed it — a function, a gadget in the
    middle of one, injected shellcode in a data page, or garbage.

    Execution model. A function is compiled straight from its IR on its
    first entry into one closure per instruction and terminator, and the
    code is cached on the [Loader.image]: every run of an image shares it,
    and each function is compiled at most once per image. One driver runs
    the closures. Each turn of it first makes, in this order, the fuel test
    ([Trap.Fuel_exhausted] when it is spent), the faults scheduled for
    that step, and the preemption check of a multithreaded machine; then
    it runs a stretch: a run of a block's instructions with no call or
    intrinsic, through its [Br]/[Jmp]/[Switch] terminator if it reaches
    one, or the single instruction at hand where no stretch starts. The
    stretch is cut short so that it ends before the fuel runs out, before
    the next scheduled fault and before the scheduler quantum expires, so
    no test can fall due inside it; fuel is still counted per instruction,
    so a trap inside a stretch reports the same [instrs] and [cycles].

    Every field of {!result} is exactly what single-stepping the whole
    run, with the tests before every instruction, would produce. *)

(** A scheduled corruption for deterministic fault-injection campaigns.
    Addresses are absolute machine addresses (after any ASLR slide);
    symbolic sites are resolved by [Levee_attacks.Faultplan].

    [Flip_bit]/[Arb_write] go through the plain (attacker-reachable)
    access path, so the machine's isolation still applies: faulting the
    safe region without provenance traps as [Isolation_violation], the
    code segment is unwritable, the null page crashes. [Store_desync]
    (add [delta] to an existing safe-store entry's value) and [Meta_drop]
    (erase an entry) mutate the safe pointer store directly — they model
    an attacker who has already bypassed isolation.

    [Stall] and [Worker_kill] are availability faults for the resilient
    server campaigns: [Stall] charges [cycles] extra simulated cycles (an
    external stall — I/O hiccup, page-fault storm) without touching
    memory; [Worker_kill] forcibly finishes spawned thread [tid] with
    value [-1] (joiners observe it; mutexes the victim held stay held,
    so a kill inside a critical section can deadlock the survivors).
    Killing tid 0 crashes the whole machine; an invalid or already
    finished tid is a no-op. *)
type fault =
  | Flip_bit of { addr : int; bit : int }
  | Arb_write of { addr : int; value : int }
  | Store_desync of { addr : int; delta : int }
  | Meta_drop of { addr : int }
  | Stall of { cycles : int }
  | Worker_kill of { tid : int }

type result = {
  outcome : Trap.outcome;
  cycles : int;              (** deterministic cost-model cycles *)
  instrs : int;              (** instructions executed *)
  mem_ops : int;
  instrumented_mem_ops : int;
  output : string;           (** everything print_int/print_str produced *)
  checksum : int;            (** the checksum() accumulator *)
  mem_footprint : int;       (** words of regular memory touched (pages) *)
  store_footprint : int;     (** words used by the safe pointer store *)
  store_accesses : int;      (** safe-store get/set/clear operations *)
  heap_peak : int;           (** peak live heap words *)
  threads : int;             (** total threads, including main (>= 1) *)
  ctx_switches : int;        (** scheduler context switches *)
  races : int;               (** races reported by the lockset detector *)
  race_details : Race.report list;
      (** the races in occurrence order ({!Race.describe} prints one), for
          projection back onto program objects ({!Raceproj}) *)
}

(** Run [main] of a loaded image to completion.
    @param input the attacker/workload input word stream
    @param fuel instruction budget (default 60M); exceeding it yields
           [Trap.Fuel_exhausted]
    @param faults scheduled corruptions as [(step, fault)] pairs; the
           fault fires just before instruction number [step] (0-based)
           executes. Same-step faults fire in list order; steps beyond
           the fuel budget never fire.
    @param sched_seed seed of the deterministic preemptive scheduler
           (default 0). Single-threaded programs never consult the
           scheduler, so the seed does not affect them; for multithreaded
           programs, the run is a pure function of (program, input,
           config, faults, sched_seed).

    When the run ends, after the result has read the footprints, the
    machine's memory and safe-store pages go back to the current
    domain's pools ({!Mem.clear}, {!Safestore.reset}) for the next run
    there; recycled pages are zeroed, so no field of the result depends
    on what ran before. A run that escapes with an exception other than
    a machine stop leaves its pages to the GC.
    @raise Invalid_argument if the program has no [main], before any
           machine state is built; or when a function is about to be
           entered for the first time and compiling it finds a register
           outside [0, nregs), a branch, jump or switch target outside
           its blocks, or a global, function operand, direct callee or
           cfi-type target the image does not define. The message names
           the function and the target. *)
val run :
  ?input:int array -> ?fuel:int -> ?faults:(int * fault) list ->
  ?sched_seed:int -> Loader.image -> result

(** [run_program prog cfg] loads and runs in one step. The program must
    define [main]. *)
val run_program :
  ?input:int array -> ?fuel:int -> ?faults:(int * fault) list ->
  ?sched_seed:int -> Levee_ir.Prog.t -> Config.t -> result
