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
    - calling [run] from inside a pool task is detected and rejected with
      [Invalid_argument] instead of deadlocking the pool.

    There is no timeout and no retry: every task the harness submits is
    bounded by fuel or an iteration cap and is deterministic, so a retry
    would repeat the same failure and a task that never returns is a bug
    for the tests to catch. *)

type t

(** [create ~jobs] spawns [jobs] worker domains when [jobs > 1];
    [jobs <= 1] creates an inline pool that runs tasks in the caller and
    spawns nothing. *)
val create : jobs:int -> t

(** The pool's configured size (>= 1). *)
val jobs : t -> int

(** [Domain.recommended_domain_count ()], the default for [--jobs]. *)
val default_jobs : unit -> int

(** [run p thunks] executes all thunks and returns their results in
    submission order, each exception captured in its own slot. Blocks
    until every task has finished.

    @raise Invalid_argument when called from inside a task of [p]. *)
val run : t -> (unit -> 'a) list -> ('a, exn) result list

(** [map p f xs] = [run p (List.map (fun x () -> f x) xs)]. *)
val map : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list

(** Stop the workers and join their domains. The pool must not be used
    afterwards; idempotent. *)
val shutdown : t -> unit

(** [sweep ~jobs f xs] maps [f] over [xs] on a fresh [jobs]-wide pool and
    shuts the pool down: the one sweep driver every harness shares.
    Results come back in submission order, so any [jobs] yields the same
    list; if a task raised, the first failed task's exception (in
    submission order) is re-raised once the whole batch has run. *)
val sweep : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
