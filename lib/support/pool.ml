(* Fixed-size Domain-based worker pool with deterministic result order.

   Tasks are erased to [unit -> bool] closures that write into their own
   result slot; the queue/counters are protected by one mutex. Workers
   never die on a task exception: the wrapper catches it into the slot.
   The boolean tells the worker whether to keep serving the queue —
   [false] means the task was abandoned by the watchdog and a replacement
   worker already exists, so this (previously stuck) domain retires.

   A batch is complete when its own [remaining] counter drops to zero, at
   which point the submitter is woken (or notices, when it is polling as
   the watchdog). Completion is per-batch, not pool-global, so a slot
   abandoned by the watchdog finishes the batch even though the stuck
   task is still running somewhere. *)

type failure =
  | Exn of exn
  | Timed_out of float

type 'a outcome = { result : ('a, failure) result; attempts : int }

type t = {
  size : int;
  m : Mutex.t;
  work_cv : Condition.t;            (* workers: queue non-empty or stop *)
  done_cv : Condition.t;            (* submitter: batch drained *)
  queue : (unit -> bool) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable abandoned_n : int;        (* timed-out tasks still running *)
  mutable in_inline_task : bool;    (* jobs<=1: inside an inline task *)
}

let jobs p = p.size

let default_jobs () = Domain.recommended_domain_count ()

let default_backoff k = 0.01 *. float_of_int (1 lsl (k - 1))

(* Which pool this domain is a worker of, for re-entrancy detection. *)
let current_pool : t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let rec worker p =
  Mutex.lock p.m;
  while Queue.is_empty p.queue && not p.stop do
    Condition.wait p.work_cv p.m
  done;
  if Queue.is_empty p.queue then Mutex.unlock p.m (* stop requested *)
  else begin
    let task = Queue.pop p.queue in
    Mutex.unlock p.m;
    if task () then worker p        (* never raises: see [make_task] *)
  end

let spawn_worker p =
  Domain.spawn (fun () ->
    Domain.DLS.set current_pool (Some p);
    worker p)

let create ~jobs =
  let size = max 1 jobs in
  let p =
    { size; m = Mutex.create (); work_cv = Condition.create ();
      done_cv = Condition.create (); queue = Queue.create ();
      stop = false; workers = []; abandoned_n = 0; in_inline_task = false }
  in
  if size > 1 then
    p.workers <- List.init size (fun _ -> spawn_worker p);
  p

let assert_not_reentrant p =
  let from_worker =
    match Domain.DLS.get current_pool with
    | Some q -> q == p
    | None -> false
  in
  if from_worker || p.in_inline_task then
    invalid_arg "Pool.run: re-entrant use from inside a pool task"

(* Execute one thunk with bounded, deterministic retry. Never raises. *)
let attempt ~retries ~backoff th =
  let rec go k =
    match th () with
    | v -> (Ok v, k)
    | exception e ->
      if k > retries then (Error (Exn e), k)
      else begin
        (try Unix.sleepf (backoff k) with _ -> ());
        go (k + 1)
      end
  in
  go 1

let run_guarded ?timeout ?(retries = 0) ?(backoff = default_backoff) p thunks =
  assert_not_reentrant p;
  let retries = max 0 retries in
  let n = List.length thunks in
  let slots = Array.make n None in
  if p.size <= 1 then
    (* Inline pool: sequential, in submission order. The watchdog needs
       worker domains, so [timeout] cannot preempt here and is ignored. *)
    List.iteri
      (fun i th ->
        p.in_inline_task <- true;
        let result, attempts =
          Fun.protect
            ~finally:(fun () -> p.in_inline_task <- false)
            (fun () -> attempt ~retries ~backoff th)
        in
        slots.(i) <- Some { result; attempts })
      thunks
  else begin
    let started = Array.make n 0.0 in   (* 0. = still queued *)
    let remaining = ref n in
    let make_task i th () =
      Mutex.lock p.m;
      if slots.(i) <> None then (Mutex.unlock p.m; true)
        (* timed out while still queued: the batch already reported it *)
      else begin
        started.(i) <- Unix.gettimeofday ();
        Mutex.unlock p.m;
        let result, attempts = attempt ~retries ~backoff th in
        Mutex.lock p.m;
        let keep =
          if slots.(i) = None then begin
            slots.(i) <- Some { result; attempts };
            decr remaining;
            if !remaining = 0 then Condition.broadcast p.done_cv;
            true
          end else begin
            (* Abandoned mid-run; a replacement worker took this one's
               place, so the domain retires once we return [false]. *)
            p.abandoned_n <- p.abandoned_n - 1;
            Condition.broadcast p.done_cv;
            false
          end
        in
        Mutex.unlock p.m;
        keep
      end
    in
    Mutex.lock p.m;
    List.iteri (fun i th -> Queue.push (make_task i th) p.queue) thunks;
    Condition.broadcast p.work_cv;
    (match timeout with
     | None ->
       while !remaining > 0 do Condition.wait p.done_cv p.m done
     | Some budget ->
       (* OCaml has no timed condition wait: the submitter doubles as the
          watchdog, polling for overdue tasks at a short interval. *)
       while !remaining > 0 do
         Mutex.unlock p.m;
         Unix.sleepf 0.002;
         Mutex.lock p.m;
         if !remaining > 0 then begin
           let now = Unix.gettimeofday () in
           for i = 0 to n - 1 do
             if slots.(i) = None && started.(i) > 0.0
                && now -. started.(i) > budget
             then begin
               slots.(i) <-
                 Some { result = Error (Timed_out (now -. started.(i)));
                        attempts = 1 };
               decr remaining;
               p.abandoned_n <- p.abandoned_n + 1;
               p.workers <- spawn_worker p :: p.workers
             end
           done;
           if !remaining = 0 then Condition.broadcast p.done_cv
         end
       done);
    Mutex.unlock p.m
  end;
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) slots)

let run p thunks =
  List.map
    (fun o ->
      match o.result with
      | Ok v -> Ok v
      | Error (Exn e) -> Error e
      | Error (Timed_out _) -> assert false (* no timeout requested *))
    (run_guarded p thunks)

let map p f xs = run p (List.map (fun x () -> f x) xs)

let abandoned p =
  Mutex.lock p.m;
  let k = p.abandoned_n in
  Mutex.unlock p.m;
  k

let shutdown p =
  (* Give abandoned tasks a moment to drain so their domains terminate
     and every spawn is joinable; a domain still stuck after the grace
     period is leaked rather than hanging the caller forever. *)
  Mutex.lock p.m;
  let waited = ref 0.0 in
  while p.abandoned_n > 0 && !waited < 1.0 do
    Mutex.unlock p.m;
    Unix.sleepf 0.02;
    waited := !waited +. 0.02;
    Mutex.lock p.m
  done;
  p.stop <- true;
  Condition.broadcast p.work_cv;
  let ws = p.workers in
  p.workers <- [];
  let leak = p.abandoned_n > 0 in
  Mutex.unlock p.m;
  if not leak then List.iter Domain.join ws

let sweep ~jobs f xs =
  let p = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> map p f xs)
  |> List.map (function Ok v -> v | Error e -> raise e)
