(** A fixed-size Domain-based worker pool.

    The benchmark harness fans independent (workload x protection x store)
    cells out across OCaml 5 domains. The pool guarantees:

    - results come back ordered by submission index, regardless of which
      worker finished first, so a parallel run is bit-for-bit comparable
      with a sequential one;
    - a raising task is captured as an [Error] in its own slot and does
      not kill the worker or poison the rest of the batch;
    - [jobs = 1] executes every task inline in the submitting domain, in
      submission order, spawning no domains at all — the sequential
      baseline path;
    - a stuck task cannot hang a batch: [run_guarded ~timeout] abandons
      it and reports [Timed_out] while sibling results are kept;
    - calling [run] from inside a pool task is detected and rejected with
      [Invalid_argument] instead of deadlocking the pool. *)

type t

(** Why a task produced no value. *)
type failure =
  | Exn of exn          (** last exception, after all retry attempts *)
  | Timed_out of float  (** abandoned by the watchdog after this many s *)

(** One task's result plus how many executions it took (>= 1). *)
type 'a outcome = { result : ('a, failure) result; attempts : int }

(** [create ~jobs] spawns [jobs] worker domains when [jobs > 1];
    [jobs <= 1] creates an inline pool that runs tasks in the caller and
    spawns nothing. *)
val create : jobs:int -> t

(** The pool's configured size (>= 1). *)
val jobs : t -> int

(** [Domain.recommended_domain_count ()], the default for [--jobs]. *)
val default_jobs : unit -> int

(** Deterministic exponential backoff: [default_backoff k] seconds are
    slept before retry [k] (1-based), doubling each time. No jitter, so a
    retried batch replays identically. *)
val default_backoff : int -> float

(** [run_guarded p thunks] executes all thunks and returns their outcomes
    in submission order. Blocks until every slot is decided.

    [timeout] is a per-task wall-clock budget in seconds, measured from
    the moment the task starts executing (it covers all retry attempts).
    An over-budget task is abandoned: its slot becomes [Timed_out] and a
    replacement worker is spawned so pool capacity is preserved; the
    abandoned domain is left to finish (OCaml domains cannot be killed)
    and is not joined by [shutdown] if still running. The watchdog needs
    worker domains, so an inline ([jobs <= 1]) pool ignores [timeout].

    [retries] (default 0) is the number of extra attempts after a raising
    execution; [backoff] (default {!default_backoff}) gives the sleep
    before each retry. [attempts] in the outcome counts executions.

    @raise Invalid_argument when called from inside a task of [p]. *)
val run_guarded :
  ?timeout:float ->
  ?retries:int ->
  ?backoff:(int -> float) ->
  t -> (unit -> 'a) list -> 'a outcome list

(** [run p thunks] = {!run_guarded} with no timeout and no retries,
    flattened to the classic result list.

    @raise Invalid_argument when called from inside a task of [p]. *)
val run : t -> (unit -> 'a) list -> ('a, exn) result list

(** [map p f xs] = [run p (List.map (fun x () -> f x) xs)]. *)
val map : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list

(** Number of timed-out tasks that are still executing in abandoned
    worker domains. *)
val abandoned : t -> int

(** Stop the workers and join their domains. Waits briefly for abandoned
    tasks to drain; if one is still stuck, its domain is leaked rather
    than hanging the caller. The pool must not be used afterwards;
    idempotent. *)
val shutdown : t -> unit

(** [sweep ~jobs f xs] maps [f] over [xs] on a fresh [jobs]-wide pool and
    shuts the pool down: the one sweep driver every harness shares.
    Results come back in submission order, so any [jobs] yields the same
    list; if a task raised, the first failed task's exception (in
    submission order) is re-raised once the whole batch has run. *)
val sweep : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
