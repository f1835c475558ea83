(** The CPI instrumentation pass (Sections 3.2.1 and 3.2.2).

    Routes every memory operation the sensitive-access plan
    ([Levee_analysis.Plan]) calls sensitive through the safe pointer store
    ([SafeFull]; [SafeDebug] in debug mode), routes annotated-struct data
    through [SafeData], and marks every dereference through a sensitive
    pointer as runtime-checked. The plan holds the decision — the Fig. 7
    type rule, the char* string heuristic, the unsafe-cast augmentation,
    programmer annotations and, when [refine] is set (the default), the
    points-to demotion of accesses that provably never reach a code
    pointer; [run] returns the number of accesses demoted that way. libc
    memory-manipulation calls whose arguments cannot be proven
    non-sensitive are replaced with their safe-store-aware variants. *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog
module An = Levee_analysis

(* Can we prove that the memory reachable from operand [o] holds no
   sensitive values? Used to keep plain memcpy/memset where possible. A
   parameter's memory is unknown: the front end spills every parameter,
   so a copy's arguments reach here as loaded pointers anyway. *)
let provably_non_sensitive ctx ud (prog : Prog.t) o =
  match An.Usedef.origin ud o with
  | An.Usedef.From_alloca ty -> not (An.Sensitivity.is_sensitive ctx ty)
  | An.Usedef.From_global g ->
    (match Prog.find_global prog g with
     | Some { Prog.gty; _ } -> not (An.Sensitivity.is_sensitive ctx gty)
     | None -> false)
  | An.Usedef.From_const -> true
  | An.Usedef.From_param _ | An.Usedef.From_fun _ | An.Usedef.From_malloc
  | An.Usedef.From_load _ | An.Usedef.From_call | An.Usedef.Unknown -> false

(* A char access is a universal-pointer dereference only when its address
   was loaded as a (non-demoted) char*; direct indexing into char arrays is
   based on the array and needs no check. *)
let char_deref_needs_check f fn addr =
  match An.Usedef.origin (An.Plan.usedef f) addr with
  | An.Usedef.From_load pos ->
    let b = fn.Prog.blocks.(pos.An.Usedef.block) in
    (match b.Prog.instrs.(pos.An.Usedef.idx) with
     | I.Load { ty = Ty.Ptr Ty.Char; _ } ->
       not (An.Plan.demoted f (pos.An.Usedef.block, pos.An.Usedef.idx))
     | I.Load { ty = Ty.Ptr Ty.Void; _ } -> true
     | _ -> false)
  | _ -> false

(** [usedef] hands out the build's use-def of each function. *)
let run ?(debug = false) ?(refine = true) ~points_to ~usedef (prog : Prog.t) :
    int =
  let plan = An.Plan.create ~refine ~pinned:[] ~points_to ~usedef prog in
  let ctx = An.Plan.ctx plan in
  let safe_where = if debug then I.SafeDebug else I.SafeFull in
  let demoted = An.Plan.demoted_count plan in
  Prog.iter_funcs prog (fun fn ->
      let f = An.Plan.func plan fn.Prog.fname in
      let non_sensitive o =
        provably_non_sensitive ctx (An.Plan.usedef f) prog o
      in
      let route here =
        match An.Plan.access f here with
        | An.Plan.Sensitive -> Some safe_where
        | An.Plan.Annotated -> Some I.SafeData
        | An.Plan.Plain -> None
      in
      let needs_check ty addr here =
        An.Plan.annotated f addr
        ||
        match ty with
        | Ty.Char -> char_deref_needs_check f fn addr
        | _ ->
          An.Sensitivity.deref_needs_check ctx ty
          && not (An.Plan.demoted f here)
      in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              let here = (b.Prog.bid, idx) in
              match i with
              | I.Load ({ ty; addr; _ } as l)
                when not (An.Plan.on_safe_slot f addr) ->
                Option.iter (fun w -> l.where <- w) (route here);
                if needs_check ty addr here then l.checked <- true
              | I.Store ({ ty; addr; _ } as s)
                when not (An.Plan.on_safe_slot f addr) ->
                Option.iter (fun w -> s.where <- w) (route here);
                if needs_check ty addr here then s.checked <- true
              | I.Intrin { dst; op = I.I_memcpy; args = [ d; s; n ] } ->
                if not (non_sensitive d && non_sensitive s) then
                  b.Prog.instrs.(idx) <-
                    I.Intrin { dst; op = I.I_cpi_memcpy; args = [ d; s; n ] }
              | I.Intrin { dst; op = I.I_memset; args = [ d; x; n ] } ->
                if not (non_sensitive d) then
                  b.Prog.instrs.(idx) <-
                    I.Intrin { dst; op = I.I_cpi_memset; args = [ d; x; n ] }
              | _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks);
  demoted
