(* Fixed-size Domain-based worker pool with deterministic result order.

   Tasks are erased to [unit -> unit] closures that write into their own
   result slot; the queue and the batch counters are protected by one
   mutex. Workers never die on a task exception: the wrapper catches it
   into the slot. A batch is complete when its own [remaining] counter
   drops to zero, at which point the submitter is woken. *)

type t = {
  size : int;
  m : Mutex.t;
  work_cv : Condition.t;            (* workers: queue non-empty or stop *)
  done_cv : Condition.t;            (* submitter: batch drained *)
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable in_inline_task : bool;    (* jobs<=1: inside an inline task *)
}

let jobs p = p.size

let default_jobs () = Domain.recommended_domain_count ()

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
    task ();                        (* never raises: see [run] *)
    worker p
  end

let create ~jobs =
  let size = max 1 jobs in
  let p =
    { size; m = Mutex.create (); work_cv = Condition.create ();
      done_cv = Condition.create (); queue = Queue.create ();
      stop = false; workers = []; in_inline_task = false }
  in
  if size > 1 then
    p.workers <-
      List.init size (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set current_pool (Some p);
              worker p));
  p

let assert_not_reentrant p =
  let from_worker =
    match Domain.DLS.get current_pool with
    | Some q -> q == p
    | None -> false
  in
  if from_worker || p.in_inline_task then
    invalid_arg "Pool.run: re-entrant use from inside a pool task"

let capture th = try Ok (th ()) with e -> Error e

let run p thunks =
  assert_not_reentrant p;
  if p.size <= 1 then
    (* Inline pool: sequential, in submission order. *)
    List.map
      (fun th ->
        p.in_inline_task <- true;
        let r = capture th in
        p.in_inline_task <- false;
        r)
      thunks
  else begin
    let slots = Array.make (List.length thunks) None in
    let remaining = ref (Array.length slots) in
    let task i th () =
      let r = capture th in
      Mutex.lock p.m;
      slots.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.broadcast p.done_cv;
      Mutex.unlock p.m
    in
    Mutex.lock p.m;
    List.iteri (fun i th -> Queue.push (task i th) p.queue) thunks;
    Condition.broadcast p.work_cv;
    while !remaining > 0 do Condition.wait p.done_cv p.m done;
    Mutex.unlock p.m;
    Array.to_list (Array.map Option.get slots)
  end

let map p f xs = run p (List.map (fun x () -> f x) xs)

let shutdown p =
  Mutex.lock p.m;
  p.stop <- true;
  Condition.broadcast p.work_cv;
  let ws = p.workers in
  p.workers <- [];
  Mutex.unlock p.m;
  List.iter Domain.join ws

let sweep ~jobs f xs =
  let p = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> map p f xs)
  |> List.map (function Ok v -> v | Error e -> raise e)
