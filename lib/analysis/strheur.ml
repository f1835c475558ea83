(** The char* string heuristic (Section 3.2.1).

    char* is a universal pointer type and hence sensitive, but most char*
    in C programs are plain strings. The paper's heuristic assumes char*
    pointers that are passed to the standard libc string functions or that
    are assigned to point to string constants are not universal.

    The decision is made per pointer *site* (the alloca or global that
    stores the char* value), not per instruction: all accesses of a
    demoted pointer are demoted together, or none are — otherwise a store
    routed to the safe store paired with a plain load would read a stale
    regular copy. A site is demoted iff every value stored into it is
    string-like data (string constants, char buffers, fresh allocations)
    and every value loaded from it is consumed only by string operations.
    Heuristic misses merely leave extra instrumentation; they never remove
    protection from a pointer that could carry a code pointer. *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog

let is_string_global name =
  String.length name >= 4 && String.sub name 0 4 = ".str"

let string_intrinsic (op : I.intrin) =
  match op with
  | I.I_strcpy | I.I_strlen | I.I_strcmp | I.I_print_str | I.I_read_input
  | I.I_system | I.I_memcpy | I.I_memset | I.I_free -> true
  | I.I_malloc | I.I_cpi_memcpy | I.I_cpi_memset | I.I_read_int
  | I.I_print_int | I.I_checksum | I.I_setjmp | I.I_longjmp | I.I_exit
  | I.I_abort | I.I_thread_spawn | I.I_thread_join | I.I_mutex_lock
  | I.I_mutex_unlock | I.I_atomic_add -> false

let stringy_global (prog : Prog.t) g =
  is_string_global g
  || (match Prog.find_global prog g with
      | Some { Prog.gty = Ty.Arr (Ty.Char, _); _ } -> true
      | Some _ | None -> false)

(* A stored value is string-like when it denotes string/character data and
   can never be a laundered code pointer. *)
let stringy_value prog ud v =
  match Usedef.origin ud v with
  | Usedef.From_global g -> stringy_global prog g
  | Usedef.From_alloca ty ->
    (match ty with Ty.Arr (Ty.Char, _) | Ty.Char -> true | _ -> false)
  | Usedef.From_malloc | Usedef.From_const -> true
  | Usedef.From_param i ->
    (* a char* parameter spilled into its slot: string-like iff declared
       char* (the store type already guarantees that here) *)
    (match List.nth_opt (Usedef.func ud).Prog.params i with
     | Some (_, Ty.Ptr Ty.Char) -> true
     | Some _ | None -> false)
  | Usedef.From_fun _ | Usedef.From_load _ | Usedef.From_call | Usedef.Unknown ->
    false

(* A loaded char* is string-consumed when it only feeds string intrinsics,
   comparisons and character-granularity accesses. *)
let rec stringy_uses ud ~depth reg =
  depth > 0
  && List.for_all
       (fun (u : Usedef.use) ->
         match u with
         | Usedef.Intrin_arg (_, op, _) -> string_intrinsic op
         | Usedef.Cmp_op _ | Usedef.Branch_cond -> true
         | Usedef.Load_addr (_, Ty.Char) | Usedef.Store_addr (_, Ty.Char) -> true
         | Usedef.Gep_base (_, dst) | Usedef.Bin_op (_, dst) ->
           stringy_uses ud ~depth:(depth - 1) dst
         | Usedef.Store_val (_, Ty.Ptr Ty.Char) -> true   (* string ptr copy *)
         | Usedef.Store_val _ | Usedef.Load_addr _ | Usedef.Store_addr _
         | Usedef.Cast_src _ | Usedef.Call_arg _ | Usedef.Callee _
         | Usedef.Ret_val | Usedef.Gep_index _ -> false)
       (Usedef.uses_of ud reg)

(* Per-site evidence: are all stores stringy and all loads
   string-consumed? Allocas are function-local, so their flags live in an
   array by register; globals are shared across functions. *)
type site = Local of int | Global of bool ref

(** Program-level demotion map: per function, the positions of char*
    loads/stores that the heuristic treats as non-sensitive. *)
let demoted ~(usedef : string -> Usedef.t) (prog : Prog.t) :
    string -> Usedef.marks =
  let globals = Hashtbl.create 32 in
  let global g =
    match Hashtbl.find_opt globals g with
    | Some f -> f
    | None ->
      let f = ref true in
      Hashtbl.replace globals g f;
      f
  in
  let out = Hashtbl.create 64 in
  let pending = ref [] in
  Prog.iter_funcs prog (fun fn ->
      let ud = usedef fn.Prog.fname in
      let local = Array.make fn.Prog.nregs true in
      let accesses = ref [] in
      let record addr pos good =
        match Usedef.root_site ud addr with
        | Usedef.Site_alloca r ->
          local.(r) <- local.(r) && good ();
          accesses := (Local r, pos) :: !accesses
        | Usedef.Site_global g ->
          let f = global g in
          f := !f && good ();
          accesses := (Global f, pos) :: !accesses
        | Usedef.Site_unknown -> ()
      in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              match i with
              | I.Store { ty = Ty.Ptr Ty.Char; v; addr; _ } ->
                record addr (b.Prog.bid, idx) (fun () ->
                    stringy_value prog ud v)
              | I.Load { ty = Ty.Ptr Ty.Char; dst; addr; _ } ->
                record addr (b.Prog.bid, idx) (fun () ->
                    stringy_uses ud ~depth:6 dst)
              | _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks;
      let m = Usedef.marks fn in
      Hashtbl.replace out fn.Prog.fname m;
      pending := (m, local, !accesses) :: !pending);
  (* Every site's evidence is complete only once every function is seen. *)
  List.iter
    (fun (m, local, accesses) ->
      List.iter
        (fun (site, pos) ->
          let ok = match site with Local r -> local.(r) | Global f -> !f in
          if ok then Usedef.mark m pos)
        accesses)
    !pending;
  Hashtbl.find out
