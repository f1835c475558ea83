(** The sensitive-access plan (Section 3.2.1); see plan.mli. The char*
    demotions every consumer reads are built up front; every other table
    is lazy and kept, so each pass builds only what it reads, once. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog

type access = Plain | Sensitive | Annotated

type func = {
  fn : Prog.func;
  ctx : Sensitivity.ctx;
  char_demoted : (int * int, unit) Hashtbl.t;
  safe_slots : (int, unit) Hashtbl.t Lazy.t;
  usedef : Usedef.t Lazy.t;
  forced : (int * int, unit) Hashtbl.t Lazy.t;
  annotated : (int, unit) Hashtbl.t Lazy.t;
  refined : (int * int, unit) Hashtbl.t;  (* filled by [refinement] *)
  refinement : int Lazy.t;                (* shared by every slice *)
}

type t = {
  ctx : Sensitivity.ctx;
  funcs : (string, func) Hashtbl.t;
  pt : Pointsto.t Lazy.t;
  refinement : int Lazy.t;
}

let reg_in tbl = function
  | I.Reg r -> Hashtbl.mem (Lazy.force tbl) r
  | I.Imm _ | I.Glob _ | I.Fun _ | I.Nullp -> false

(* Registers holding the address of a proven-safe stack slot. *)
let safe_slot_regs (fn : Prog.func) =
  let t = Hashtbl.create 16 in
  Prog.iter_instrs fn (fun i ->
      match i with
      | I.Alloca { dst; slot = I.SafeSlot; _ } -> Hashtbl.replace t dst ()
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

let on_safe_slot f o = reg_in f.safe_slots o
let annotated f o = reg_in f.annotated o

(* The keep/skip protocol of [Pointsto.refine_cpi]. Skipped: outside the
   instrumented set to begin with. Kept: Castflow-forced loads,
   annotated-struct paths, and accesses that may reach a pinned global. *)
let skip_in funcs fname pos =
  match Hashtbl.find_opt funcs fname with
  | None -> false
  | Some f ->
    Hashtbl.mem f.char_demoted pos
    || (match access_addr f pos with
        | Some a -> on_safe_slot f a
        | None -> false)

let keep_in ~pinned pt funcs fname pos =
  match Hashtbl.find_opt funcs fname with
  | None -> true
  | Some f ->
    Hashtbl.mem (Lazy.force f.forced) pos
    || (match access_addr f pos with
        | None -> true
        | Some a ->
          annotated f a
          || (pinned <> []
              && List.exists
                   (function
                     | Pointsto.O_global g -> List.mem g pinned
                     | _ -> false)
                   (Pointsto.points_to pt ~fname a)))

let refine ~pinned ctx funcs pt =
  let refined =
    Pointsto.refine_cpi pt ~ctx
      ~usedef:(fun fname -> Lazy.force (Hashtbl.find funcs fname).usedef)
      ~keep:(keep_in ~pinned pt funcs) ~skip:(skip_in funcs)
  in
  Hashtbl.iter
    (fun (fname, blk, idx) () ->
      Option.iter
        (fun f -> Hashtbl.replace f.refined (blk, idx) ())
        (Hashtbl.find_opt funcs fname))
    refined;
  Hashtbl.length refined

let create ~refine:on ~pinned (prog : Prog.t) =
  let ctx = Sensitivity.create prog.Prog.tenv in
  let funcs = Hashtbl.create 16 in
  let pt = lazy (Pointsto.analyze prog) in
  let refinement =
    lazy (if on then refine ~pinned ctx funcs (Lazy.force pt) else 0)
  in
  Prog.iter_funcs prog (fun fn ->
      let usedef = lazy (Usedef.build fn) in
      Hashtbl.replace funcs fn.Prog.fname
        { fn; ctx; char_demoted = Hashtbl.create 16;
          safe_slots = lazy (safe_slot_regs fn);
          usedef;
          forced =
            lazy (Castflow.forced_load_positions ctx (Lazy.force usedef));
          annotated = lazy (Sensitivity.annotated_addr_regs ctx fn);
          refined = Hashtbl.create 16; refinement });
  Hashtbl.iter
    (fun (fname, blk, idx) () ->
      Option.iter
        (fun f -> Hashtbl.replace f.char_demoted (blk, idx) ())
        (Hashtbl.find_opt funcs fname))
    (Strheur.demoted prog);
  { ctx; funcs; pt; refinement }

let ctx (t : t) = t.ctx
let points_to t = Lazy.force t.pt
let demoted_count (t : t) = Lazy.force t.refinement
let skip t = skip_in t.funcs
let func t fname = Hashtbl.find t.funcs fname
let usedef f = Lazy.force f.usedef
let forced f = Lazy.force f.forced
let char_demoted f = f.char_demoted

let refined (f : func) =
  ignore (Lazy.force f.refinement);
  f.refined

let demoted f pos =
  Hashtbl.mem f.char_demoted pos || Hashtbl.mem (refined f) pos

let access (f : func) pos =
  match instr_at f pos with
  | Some (I.Load { ty; addr; _ } | I.Store { ty; addr; _ })
    when not (on_safe_slot f addr) ->
    if (Sensitivity.is_sensitive f.ctx ty && not (demoted f pos))
       || Hashtbl.mem (forced f) pos
    then Sensitive
    else if annotated f addr then Annotated
    else Plain
  | Some _ | None -> Plain
