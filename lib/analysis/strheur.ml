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
    (match List.nth_opt ud.Usedef.fn.Prog.params i with
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

(* Site keys must be program-global: allocas are function-local, globals
   are shared across functions. *)
type site = Local of string * int | Global of string

type access = {
  a_fname : string;
  a_pos : int * int;      (* block, idx *)
}

(** Program-level demotion map: [(fname, block, idx)] positions of char*
    loads/stores that the heuristic treats as non-sensitive. *)
let demoted (prog : Prog.t) : (string * int * int, unit) Hashtbl.t =
  (* Per-site evidence: all stores stringy? all loads string-consumed? *)
  let ok : (site, bool ref) Hashtbl.t = Hashtbl.create 32 in
  let accesses : (site, access list ref) Hashtbl.t = Hashtbl.create 32 in
  let record site fname pos good =
    let flag =
      match Hashtbl.find_opt ok site with
      | Some f -> f
      | None ->
        let f = ref true in
        Hashtbl.replace ok site f;
        f
    in
    flag := !flag && good;
    let l =
      match Hashtbl.find_opt accesses site with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace accesses site l;
        l
    in
    l := { a_fname = fname; a_pos = pos } :: !l
  in
  Prog.iter_funcs prog (fun fn ->
      let ud = Usedef.build fn in
      let site_of addr =
        match Usedef.root_site ud addr with
        | Usedef.Site_alloca r -> Some (Local (fn.Prog.fname, r))
        | Usedef.Site_global g -> Some (Global g)
        | Usedef.Site_unknown -> None
      in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              match i with
              | I.Store { ty = Ty.Ptr Ty.Char; v; addr; _ } ->
                (match site_of addr with
                 | Some s ->
                   record s fn.Prog.fname (b.Prog.bid, idx) (stringy_value prog ud v)
                 | None -> ())
              | I.Load { ty = Ty.Ptr Ty.Char; dst; addr; _ } ->
                (match site_of addr with
                 | Some s ->
                   record s fn.Prog.fname (b.Prog.bid, idx)
                     (stringy_uses ud ~depth:6 dst)
                 | None -> ())
              | _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks);
  let result = Hashtbl.create 32 in
  Hashtbl.iter
    (fun site flag ->
      if !flag then
        match Hashtbl.find_opt accesses site with
        | Some l ->
          List.iter
            (fun a ->
              let b, i = a.a_pos in
              Hashtbl.replace result (a.a_fname, b, i) ())
            !l
        | None -> ())
    ok;
  result
