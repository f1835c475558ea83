(** The CPI instrumentation pass (Sections 3.2.1 and 3.2.2).

    Rewrites every memory operation on sensitive pointers to go through the
    safe pointer store ([SafeFull]; [SafeDebug] in debug mode) and marks
    every dereference through a sensitive pointer as runtime-checked. The
    sensitive set is the type-based over-approximation of Fig. 7, refined
    by the char* string heuristic and augmented by the unsafe-cast
    data-flow analysis; programmer-annotated structs are protected
    field-by-field (the struct-ucred use case). libc memory-manipulation
    calls whose arguments cannot be proven non-sensitive are replaced with
    their safe-store-aware variants.

    When [refine] is set (the default) the interprocedural points-to
    analysis additionally demotes sensitive accesses that provably never
    reach a code pointer ([Pointsto.refine_cpi]); [run] returns the
    number of accesses demoted this way. *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog
module An = Levee_analysis

(* Can we prove that the memory reachable from operand [o] holds no
   sensitive values? Used to keep plain memcpy/memset where possible.
   [summaries] holds the interprocedural parameter facts below. *)
let provably_non_sensitive ctx ud ~summaries (prog : Prog.t) o =
  match An.Usedef.origin ud o with
  | An.Usedef.From_alloca ty -> not (An.Sensitivity.is_sensitive ctx ty)
  | An.Usedef.From_global g ->
    (match Prog.find_global prog g with
     | Some { Prog.gty; _ } -> not (An.Sensitivity.is_sensitive ctx gty)
     | None -> false)
  | An.Usedef.From_const -> true
  | An.Usedef.From_param i ->
    (match Hashtbl.find_opt summaries ud.An.Usedef.fn.Prog.fname with
     | Some flags when i < Array.length flags -> flags.(i)
     | Some _ | None -> false)
  | An.Usedef.From_fun _ | An.Usedef.From_malloc | An.Usedef.From_load _
  | An.Usedef.From_call | An.Usedef.Unknown -> false

(* Interprocedural refinement of Section 3.2.2's memset/memcpy handling:
   clang-style "real type of the argument before the cast to void*". A
   pointer parameter is non-sensitive when every direct call site passes a
   provably non-sensitive pointer; address-taken functions may be called
   from anywhere, so their parameters stay unknown. Iterated to a (downward)
   fixpoint. *)
let param_summaries ctx (prog : Prog.t) =
  let summaries : (string, bool array) Hashtbl.t = Hashtbl.create 16 in
  Prog.iter_funcs prog (fun fn ->
      let flags =
        Array.of_list
          (List.map
             (fun (_, ty) ->
               (match ty with Ty.Ptr _ -> true | _ -> false)
               && not fn.Prog.address_taken)
             fn.Prog.params)
      in
      Hashtbl.replace summaries fn.Prog.fname flags);
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 4 do
    changed := false;
    incr rounds;
    Prog.iter_funcs prog (fun fn ->
        let ud = An.Usedef.build fn in
        Prog.iter_instrs fn (fun i ->
            match i with
            | I.Call { callee = I.Direct f; args; _ } ->
              (match Hashtbl.find_opt summaries f with
               | Some flags ->
                 List.iteri
                   (fun k arg ->
                     if k < Array.length flags && flags.(k)
                        && not (provably_non_sensitive ctx ud ~summaries prog arg)
                     then begin
                       flags.(k) <- false;
                       changed := true
                     end)
                   args
               | None -> ())
            | _ -> ()))
  done;
  summaries

(* A char access is a universal-pointer dereference only when its address
   was loaded as a (non-demoted) char*; direct indexing into char arrays is
   based on the array and needs no check. *)
let char_deref_needs_check ud fn demoted addr =
  match An.Usedef.origin ud addr with
  | An.Usedef.From_load pos ->
    let b = fn.Prog.blocks.(pos.An.Usedef.block) in
    (match b.Prog.instrs.(pos.An.Usedef.idx) with
     | I.Load { ty = Ty.Ptr Ty.Char; _ } ->
       not (Hashtbl.mem demoted (pos.An.Usedef.block, pos.An.Usedef.idx))
     | I.Load { ty = Ty.Ptr Ty.Void; _ } -> true
     | _ -> false)
  | _ -> false

(* Registers holding the address of a proven-safe stack slot: direct
   accesses through them need no instrumentation — the slot lives in the
   isolated safe region and the machine preserves metadata there, exactly
   as a register-allocated local would behave after mem2reg. *)
let safe_slot_regs (fn : Prog.func) =
  let t = Hashtbl.create 16 in
  Prog.iter_instrs fn (fun i ->
      match i with
      | I.Alloca { dst; slot = I.SafeSlot; _ } -> Hashtbl.replace t dst ()
      | _ -> ());
  t

(* Per-function analysis tables, computed up front so the points-to
   refinement can consult them when deciding which positions must be kept
   instrumented and which are already outside the instrumented set. *)
type fninfo = {
  fi_fn : Prog.func;
  fi_ud : An.Usedef.t;
  fi_demoted : (int * int, unit) Hashtbl.t; (* char* heuristic demotions *)
  fi_forced : (int * int, unit) Hashtbl.t;  (* Castflow-forced loads *)
  fi_annot : (int, unit) Hashtbl.t;         (* annotated-struct addr regs *)
  fi_safe : (int, unit) Hashtbl.t;          (* safe-slot addr regs *)
}

let reg_in tbl = function
  | I.Reg r -> Hashtbl.mem tbl r
  | I.Imm _ | I.Glob _ | I.Fun _ | I.Nullp -> false

(* Address operand of the access at [pos], if [pos] is an access. *)
let access_addr (fi : fninfo) (blk, idx) =
  if blk < 0 || blk >= Array.length fi.fi_fn.Prog.blocks then None
  else
    let b = fi.fi_fn.Prog.blocks.(blk) in
    if idx < 0 || idx >= Array.length b.Prog.instrs then None
    else
      match b.Prog.instrs.(idx) with
      | I.Load { addr; _ } | I.Store { addr; _ } -> Some addr
      | _ -> None

let run ?(debug = false) ?(refine = true) (prog : Prog.t) : int =
  let ctx = An.Sensitivity.create prog.Prog.tenv in
  let safe_where = if debug then I.SafeDebug else I.SafeFull in
  let demoted_map = An.Strheur.demoted prog in
  let summaries = param_summaries ctx prog in
  let infos : (string, fninfo) Hashtbl.t = Hashtbl.create 16 in
  Prog.iter_funcs prog (fun fn ->
      Hashtbl.replace infos fn.Prog.fname
        { fi_fn = fn;
          fi_ud = An.Usedef.build fn;
          fi_demoted = An.Strheur.demoted_positions_in demoted_map fn;
          fi_forced = An.Castflow.forced_load_positions ctx fn;
          fi_annot = An.Sensitivity.annotated_addr_regs ctx fn;
          fi_safe = safe_slot_regs fn });
  (* Points-to refinement: demote type-rule-sensitive accesses whose
     points-to sets provably never reach a code pointer. Merged into the
     per-function demoted tables so the main loop below treats them
     exactly like char*-heuristic demotions. *)
  let refined_count =
    if not refine then 0
    else begin
      let pt = An.Pointsto.analyze prog in
      let keep fname pos =
        match Hashtbl.find_opt infos fname with
        | None -> true
        | Some fi ->
          Hashtbl.mem fi.fi_forced pos
          || (match access_addr fi pos with
              | Some a -> reg_in fi.fi_annot a
              | None -> true)
      in
      let skip fname pos =
        match Hashtbl.find_opt infos fname with
        | None -> false
        | Some fi ->
          Hashtbl.mem fi.fi_demoted pos
          || (match access_addr fi pos with
              | Some a -> reg_in fi.fi_safe a
              | None -> false)
      in
      let refined = An.Pointsto.refine_cpi pt ~ctx ~keep ~skip in
      Hashtbl.iter
        (fun (fname, blk, idx) () ->
          match Hashtbl.find_opt infos fname with
          | Some fi -> Hashtbl.replace fi.fi_demoted (blk, idx) ()
          | None -> ())
        refined;
      Hashtbl.length refined
    end
  in
  Prog.iter_funcs prog (fun fn ->
      let fi = Hashtbl.find infos fn.Prog.fname in
      let demoted = fi.fi_demoted in
      let forced = fi.fi_forced in
      let addr_annotated o = reg_in fi.fi_annot o in
      let ud = fi.fi_ud in
      let on_safe_slot o = reg_in fi.fi_safe o in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              let here = (b.Prog.bid, idx) in
              match i with
              | I.Load ({ ty; addr; _ } as l) when not (on_safe_slot addr) ->
                let dem = Hashtbl.mem demoted here in
                let sens =
                  (An.Sensitivity.is_sensitive ctx ty && not dem)
                  || Hashtbl.mem forced here
                in
                if sens then l.where <- safe_where
                else if addr_annotated addr then l.where <- I.SafeData;
                let needs_check =
                  match ty with
                  | Ty.Char -> char_deref_needs_check ud fn demoted addr
                  | _ -> An.Sensitivity.deref_needs_check ctx ty && not dem
                in
                if needs_check || addr_annotated addr then l.checked <- true
              | I.Store ({ ty; addr; _ } as s) when not (on_safe_slot addr) ->
                let dem = Hashtbl.mem demoted here in
                let sens = An.Sensitivity.is_sensitive ctx ty && not dem in
                if sens then s.where <- safe_where
                else if addr_annotated addr then s.where <- I.SafeData;
                let needs_check =
                  match ty with
                  | Ty.Char -> char_deref_needs_check ud fn demoted addr
                  | _ -> An.Sensitivity.deref_needs_check ctx ty && not dem
                in
                if needs_check || addr_annotated addr then s.checked <- true
              | I.Intrin { dst; op = I.I_memcpy; args = [ d; s; n ] } ->
                if not (provably_non_sensitive ctx ud ~summaries prog d
                        && provably_non_sensitive ctx ud ~summaries prog s)
                then
                  b.Prog.instrs.(idx) <-
                    I.Intrin { dst; op = I.I_cpi_memcpy; args = [ d; s; n ] }
              | I.Intrin { dst; op = I.I_memset; args = [ d; x; n ] } ->
                if not (provably_non_sensitive ctx ud ~summaries prog d) then
                  b.Prog.instrs.(idx) <-
                    I.Intrin { dst; op = I.I_cpi_memset; args = [ d; x; n ] }
              | _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks);
  refined_count
