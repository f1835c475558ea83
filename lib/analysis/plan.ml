(** The sensitive-access plan (Section 3.2.1); see plan.mli. The char*
    demotions and safe slots every consumer reads are built up front;
    the Castflow, annotation and refinement tables are lazy and kept, so
    each pass builds only what it reads, once. Position tables are dense
    per-function marks. The use-defs come from the build, and the plan
    and its lazies belong to that one build and so to one domain; only
    the strict points-to solution it is handed may be shared. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog

type access = Plain | Sensitive | Annotated

type func = {
  fn : Prog.func;
  ctx : Sensitivity.ctx;
  usedef : Usedef.t;
  char_demoted : Usedef.marks;
  safe_slots : bool array;                 (* by register *)
  forced : Usedef.marks Lazy.t;
  annotated : (int, unit) Hashtbl.t Lazy.t;
  refined : Usedef.marks Lazy.t;           (* forces the refinement *)
}

type t = {
  ctx : Sensitivity.ctx;
  funcs : (string, func) Hashtbl.t;
  pt : Pointsto.t Lazy.t;
  refinement : (string, Usedef.marks) Hashtbl.t Lazy.t;
}

(* Registers holding the address of a proven-safe stack slot. *)
let safe_slot_regs (fn : Prog.func) =
  let t = Array.make fn.Prog.nregs false in
  Prog.iteri_instrs fn (fun bid idx i ->
      match i, Prog.knob fn bid idx with
      | I.Alloca { dst; _ }, I.Slot I.SafeSlot -> t.(dst) <- true
      | _ -> ());
  t

let instr_at f (blk, idx) =
  let blocks = f.fn.Prog.blocks in
  if blk < 0 || blk >= Array.length blocks then None
  else
    let instrs = blocks.(blk).Prog.instrs in
    if idx < 0 || idx >= Array.length instrs then None else Some instrs.(idx)

let access_addr f pos =
  match instr_at f pos with
  | Some (I.Load { addr; _ } | I.Store { addr; _ }) -> Some addr
  | Some _ | None -> None

let on_safe_slot f = function
  | I.Reg r -> r >= 0 && r < Array.length f.safe_slots && f.safe_slots.(r)
  | I.Imm _ | I.Glob _ | I.Fun _ | I.Nullp -> false

let annotated f = function
  | I.Reg r -> Hashtbl.mem (Lazy.force f.annotated) r
  | I.Imm _ | I.Glob _ | I.Fun _ | I.Nullp -> false

(* The keep/skip protocol of [Pointsto.refine_cpi], one function at a
   time. Skipped: outside the instrumented set to begin with. Kept:
   Castflow-forced loads and annotated-struct paths. *)
let skip_in funcs fname =
  match Hashtbl.find_opt funcs fname with
  | None -> fun _ -> false
  | Some f ->
    fun pos ->
      Usedef.marked f.char_demoted pos
      || (match access_addr f pos with
          | Some a -> on_safe_slot f a
          | None -> false)

let keep_in funcs fname =
  match Hashtbl.find_opt funcs fname with
  | None -> fun _ -> true
  | Some f ->
    fun pos ->
      Usedef.marked (Lazy.force f.forced) pos
      || (match access_addr f pos with
          | None -> true
          | Some a -> annotated f a)

let create ~refine:on ~pinned ~points_to ~usedef (prog : Prog.t) =
  let ctx = Sensitivity.create prog.Prog.tenv in
  let funcs = Hashtbl.create 64 in
  let pt = lazy (points_to ()) in
  let refinement =
    lazy
      (if on then
         Pointsto.refine_cpi (Lazy.force pt) prog ~ctx ~usedef ~pinned
           ~keep:(keep_in funcs) ~skip:(skip_in funcs)
       else Hashtbl.create 1)
  in
  let char_demoted = Strheur.demoted ~usedef prog in
  Prog.iter_funcs prog (fun fn ->
      let fname = fn.Prog.fname in
      let ud = usedef fname in
      Hashtbl.replace funcs fname
        { fn; ctx; usedef = ud; char_demoted = char_demoted fname;
          safe_slots = safe_slot_regs fn;
          forced = lazy (Castflow.forced_load_positions ctx ud);
          annotated = lazy (Sensitivity.annotated_addr_regs ctx fn);
          refined =
            lazy
              (Option.value ~default:[||]
                 (Hashtbl.find_opt (Lazy.force refinement) fname)) });
  { ctx; funcs; pt; refinement }

let ctx (t : t) = t.ctx
let points_to t = Lazy.force t.pt

let demoted_count (t : t) =
  Hashtbl.fold
    (fun _ m n -> n + List.length (Usedef.positions m))
    (Lazy.force t.refinement) 0

let skip t = skip_in t.funcs
let func t fname = Hashtbl.find t.funcs fname
let usedef f = f.usedef
let forced f = Lazy.force f.forced
let char_demoted f = f.char_demoted
let refined f = Lazy.force f.refined

let demoted f pos =
  Usedef.marked f.char_demoted pos || Usedef.marked (refined f) pos

let access (f : func) pos =
  match instr_at f pos with
  | Some (I.Load { ty; addr; _ } | I.Store { ty; addr; _ })
    when not (on_safe_slot f addr) ->
    if (Sensitivity.is_sensitive f.ctx ty && not (demoted f pos))
       || Usedef.marked (forced f) pos
    then Sensitive
    else if annotated f addr then Annotated
    else Plain
  | Some _ | None -> Plain
