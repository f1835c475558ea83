(* Deterministic fault-injection plans: symbolic corruption schedules
   compiled down to Interp faults against one deployed image (see
   faultplan.mli for the model). *)

module M = Levee_machine
module Rng = Levee_support.Rng

type site =
  | Stack of int
  | Heap of int
  | Global of string * int
  | Safe_site of int
  | Ret_slot of string list
  | Var_slot of { chain : string list; index : int }
  | Thread_stack of { tid : int; off : int }
  | Thread_safe of { tid : int; off : int }
  | Thread_ret of { tid : int; chain : string list }

type value_spec =
  | Value of int
  | Code_entry of string

type action =
  | Flip of { site : site; bit : int }
  | Write of { site : site; value : value_spec }
  | Desync of { site : site; delta : int }
  | Drop_meta of site
  | Stall of { cycles : int }
  | Kill_worker of { tid : int }

type event = { step : int; action : action }

type t = { name : string; seed : int; events : event list }

let make ~name ?(seed = 0) events = { name; seed; events }

let random ~name ~seed ~events ~max_step =
  let rng = Rng.create seed in
  let site () =
    (* Blind probing favours the regular region; occasionally aim at the
       safe region to exercise the isolation boundary. *)
    match Rng.int rng 10 with
    | 0 | 1 -> Safe_site (Rng.int rng 256)
    | 2 | 3 | 4 -> Heap (Rng.int rng 1024)
    | _ -> Stack (Rng.int rng 512)
  in
  let action () =
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 -> Flip { site = site (); bit = Rng.int rng 31 }
    | 4 | 5 | 6 | 7 ->
      Write { site = site (); value = Value (Rng.int rng 0x40000000) }
    | 8 -> Desync { site = site (); delta = Rng.range rng 1 8 }
    | _ -> Drop_meta (site ())
  in
  let ev _ = { step = Rng.int rng (max 1 max_step); action = action () } in
  { name; seed; events = List.init (max 0 events) ev }

let site_of = function
  | Flip { site; _ } | Write { site; _ } | Desync { site; _ }
  | Drop_meta site -> Some site
  | Stall _ | Kill_worker _ -> None

(* Stall/Kill_worker are availability faults — crashes and slowness, not
   isolation bypass — so they stay inside the attacker model: CPI promises
   integrity, not liveness, and the "never hijacked" invariant must hold
   mid-degradation too. *)
let within_attacker_model p =
  List.for_all
    (fun e -> match e.action with Desync _ | Drop_meta _ -> false | _ -> true)
    p.events

(* Metadata attacks (safe-store desync / drop) are the plans that separate
   safe-region backends from keyed ones: cpi-crypt has no metadata table,
   so these events hit nothing — dropping metadata is not leaking the key. *)
let targets_metadata p =
  List.exists
    (fun e -> match e.action with Desync _ | Drop_meta _ -> true | _ -> false)
    p.events

(* Every event is a metadata attack: under a keyed backend the whole plan
   hits an empty safe store, so the faulted run must be observationally
   identical to the un-faulted baseline (class "masked"). *)
let pure_metadata p =
  p.events <> []
  && List.for_all
       (fun e ->
         match e.action with Desync _ | Drop_meta _ -> true | _ -> false)
       p.events

let has_availability_faults p =
  List.exists
    (fun e -> match e.action with Stall _ | Kill_worker _ -> true | _ -> false)
    p.events

let pure_safe_tamper p =
  p.events <> []
  && List.for_all
       (fun e ->
         match e.action, site_of e.action with
         | (Flip _ | Write _), Some (Safe_site _ | Thread_safe _) -> true
         | _ -> false)
       p.events

(* ---------- resolution ---------- *)

let last = function
  | [] -> invalid_arg "Faultplan: empty call chain"
  | l -> List.nth l (List.length l - 1)

let resolve ~(reference : M.Loader.image) ~(deployed : M.Loader.image) p =
  let rebase = deployed.M.Loader.slide - reference.M.Loader.slide in
  let layout fname =
    match M.Loader.layout reference fname with
    | l -> l
    | exception Not_found -> invalid_arg ("Faultplan: unknown function " ^ fname)
  in
  let addr_of = function
    | Stack off -> M.Layout.stack_top + deployed.M.Loader.slide - off
    | Heap off -> M.Layout.heap_base + deployed.M.Loader.slide + off
    | Global (g, off) ->
      (match Hashtbl.find_opt deployed.M.Loader.global_addr g with
       | Some a -> a + off
       | None -> invalid_arg ("Faultplan: unknown global " ^ g))
    | Safe_site off -> M.Layout.safe_stack_top + deployed.M.Loader.slide - off
    | Ret_slot chain ->
      Attack.frame_base reference chain
      - (layout (last chain)).M.Loader.fl_ret_offset
      + rebase
    | Var_slot { chain; index } ->
      let slot = Attack.nth_slot reference (last chain) index in
      Attack.frame_base reference chain - slot.M.Loader.sl_offset + rebase
    | Thread_stack { tid; off } ->
      M.Layout.thread_stack_top tid + deployed.M.Loader.slide - off
    | Thread_safe { tid; off } ->
      M.Layout.thread_safe_stack_top tid + deployed.M.Loader.slide - off
    | Thread_ret { tid; chain } ->
      Attack.thread_frame_base reference ~tid chain
      - (layout (last chain)).M.Loader.fl_ret_offset
      + rebase
  in
  let value_of = function
    | Value v -> v
    | Code_entry fn -> M.Loader.entry_addr deployed fn
  in
  List.map
    (fun e ->
      let f =
        match e.action with
        | Flip { site; bit } -> M.Interp.Flip_bit { addr = addr_of site; bit }
        | Write { site; value } ->
          M.Interp.Arb_write { addr = addr_of site; value = value_of value }
        | Desync { site; delta } ->
          M.Interp.Store_desync { addr = addr_of site; delta }
        | Drop_meta site -> M.Interp.Meta_drop { addr = addr_of site }
        | Stall { cycles } -> M.Interp.Stall { cycles }
        | Kill_worker { tid } -> M.Interp.Worker_kill { tid }
      in
      (e.step, f))
    p.events
