(* In-memory span recorder for the traced run.

   One span per call into a layer: name, start, end, parent span, the
   cell it belongs to, the protection it ran under (if any), and the
   words the call allocated, read from the Gc counters at the same
   boundaries. Spans stay in memory until the run ends. A span's self
   time (and self allocation) is its own minus what its child spans
   cover. *)

type span = {
  id : int;
  parent : int;            (* -1 for a root span *)
  name : string;
  prot : string;           (* protection name, "" when not applicable *)
  cell : int;
  t0 : float;
  t1 : float;
  words : float;           (* words allocated between the boundaries *)
}

type t = {
  mutable rev : span list;
  mutable stack : int list;
  mutable next : int;
  mutable cell : int;
}

let create () = { rev = []; stack = []; next = 0; cell = 0 }
let set_cell t c = t.cell <- c

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record t ?(prot = "") name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = alloc_words () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    let w1 = alloc_words () in
    t.stack <- List.tl t.stack;
    t.rev <-
      { id; parent; name; prot; cell = t.cell; t0; t1; words = w1 -. w0 }
      :: t.rev
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.rev

(* Per-layer totals of self time and self allocation. *)
type agg = {
  mutable calls : int;
  mutable self_s : float;
  mutable self_words : float;
}

let aggregate spans =
  let child_s = Hashtbl.create 1024 and child_w = Hashtbl.create 1024 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_s s.parent (s.t1 -. s.t0);
        add child_w s.parent s.words
      end)
    spans;
  let by_name = Hashtbl.create 16 and by_prot = Hashtbl.create 64 in
  let get tbl k =
    match Hashtbl.find_opt tbl k with
    | Some a -> a
    | None ->
      let a = { calls = 0; self_s = 0.0; self_words = 0.0 } in
      Hashtbl.replace tbl k a;
      a
  in
  List.iter
    (fun s ->
      let self_s =
        s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id)
      and self_w =
        s.words -. Option.value ~default:0.0 (Hashtbl.find_opt child_w s.id)
      in
      List.iter
        (fun a ->
          a.calls <- a.calls + 1;
          a.self_s <- a.self_s +. self_s;
          a.self_words <- a.self_words +. self_w)
        [ get by_name s.name; get by_prot (s.name, s.prot) ])
    spans;
  (by_name, by_prot)

(* Seconds of [spans] covered by root spans. *)
let root_seconds spans =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. (s.t1 -. s.t0) else acc)
    0.0 spans

let write_jsonl path spans =
  let oc = open_out path in
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"prot\":\"%s\",\"cell\":%d,\
         \"start_us\":%.1f,\"end_us\":%.1f,\"alloc_words\":%.0f}\n"
        s.id s.parent s.name s.prot s.cell
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. base) *. 1e6)
        s.words)
    spans;
  close_out oc
