(** Redundant-check elision (the Monniaux-style justified optimisation).

    A CPI dereference check [check_deref a ma] is a pure function of the
    address register's value, its based-on metadata and the temporal
    liveness of the metadata's allocation id. If on *every* path to a
    checked access an equivalent check — same symbolic address value —
    has already executed and passed, re-executing it must pass again, so
    the later check can be dropped without changing any observable
    behaviour (a check that would trap stops execution and the dominated
    position is never reached).

    "Equivalent" is decided by symbolic address values: trees over
    allocas, parameters, globals, immediates, loads ([S_mem]) and
    deterministic arithmetic. Cast metadata propagation is transparent,
    and [Bin]/[Gep] metadata propagation is a deterministic function of
    the operand values and metadata, so equal symbolic trees evaluate to
    equal (value, metadata) pairs — provided the memory cells a sym reads
    through ([S_mem]) are unchanged. Availability facts are therefore
    killed conservatively:

    - any store or memory-writing intrinsic kills facts that read memory;
    - any call (may free, changing temporal liveness) and [I_free] kill
      every fact;
    - re-executing an alloca (fresh slot address) kills facts rooted at it;
    - a fact that reads memory is generated or consumed only where its
      supporting loads are locally fresh: same block, no intervening
      kill — so the register chain provably still mirrors memory;
    - checked stores generate only memory-free facts (their own write may
      alias what a memory-reading sym depends on);
    - functions that call [setjmp] are skipped entirely ([longjmp] can
      re-enter them mid-function, invalidating the path argument).

    Every elision is recorded as a {!Levee_ir.Verify.elision_cert} and
    re-validated by [Verify.check_elision], an independent replay of the
    same argument living next to the structural verifier. *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog
module Verify = Levee_ir.Verify
module An = Levee_analysis

type sym =
  | S_imm of int
  | S_null
  | S_glob of string
  | S_fun of string
  | S_alloca of int (* alloca dst register: unique per site *)
  | S_param of int
  | S_mem of sym (* the value currently stored at address [sym] *)
  | S_bin of I.binop * sym * sym
  | S_cmp of I.cmpop * sym * sym
  | S_gep of sym * step list

and step = St_field of int * int | St_index of Ty.t * sym

(* Intrinsics that neither write program-visible memory nor free: they
   cannot invalidate an availability fact. *)
let benign_intrin (op : I.intrin) =
  match op with
  | I.I_strlen | I.I_strcmp | I.I_print_int | I.I_print_str | I.I_checksum
  | I.I_read_int | I.I_malloc | I.I_exit | I.I_abort -> true
  | I.I_free | I.I_memcpy | I.I_memset | I.I_strcpy | I.I_read_input
  | I.I_setjmp | I.I_longjmp | I.I_system | I.I_thread_spawn
  | I.I_thread_join | I.I_mutex_lock | I.I_mutex_unlock | I.I_atomic_add ->
    false

(* Does executing this instruction invalidate every fact (call / free) or
   every memory-reading fact (store)? *)
type effect = Eff_none | Eff_kill_mem | Eff_kill_all

let effect_of (i : I.instr) =
  match i with
  | I.Store _ -> Eff_kill_mem
  | I.Call _ -> Eff_kill_all
  | I.Intrin { op; _ } -> if benign_intrin op then Eff_none else Eff_kill_all
  | I.Alloca _ | I.Bin _ | I.Cmp _ | I.Load _ | I.Gep _ | I.Cast _ -> Eff_none

(* ---------- symbolic addresses ---------- *)

type syminfo = {
  s_sym : sym;
  s_mem : bool; (* reads memory (contains S_mem) *)
  s_allocas : int list; (* alloca registers the sym is rooted at *)
  s_support : An.Usedef.pos list; (* positions of contributing loads *)
}

(* Per-function builder: symbolic values for single-definition registers,
   with the supporting load positions recorded so freshness can be
   checked at each use site. *)
let build_syms (fn : Prog.func) =
  let ndefs = Array.make fn.Prog.nregs 0 in
  let defs = Array.make fn.Prog.nregs None in
  Array.iter
    (fun (b : Prog.block) ->
      Array.iteri
        (fun idx (i : I.instr) ->
          let def r =
            if r >= 0 && r < fn.Prog.nregs then begin
              ndefs.(r) <- ndefs.(r) + 1;
              defs.(r) <- Some ({ An.Usedef.block = b.Prog.bid; idx }, i)
            end
          in
          match i with
          | I.Alloca { dst; _ }
          | I.Bin { dst; _ }
          | I.Cmp { dst; _ }
          | I.Load { dst; _ }
          | I.Gep { dst; _ }
          | I.Cast { dst; _ } -> def dst
          | I.Call { dst; _ } | I.Intrin { dst; _ } ->
            (match dst with Some d -> def d | None -> ())
          | I.Store _ -> ())
        b.Prog.instrs)
    fn.Prog.blocks;
  let nparams = List.length fn.Prog.params in
  (* By register: [None] until first asked for; then [Some None], the
     cycle guard (a register on the walk stack resolves to None); then
     [Some result]. *)
  let memo : syminfo option option array = Array.make fn.Prog.nregs None in
  let rec of_reg ~depth r =
    if depth = 0 then None
    else
      match memo.(r) with
      | Some cached -> cached
      | None ->
        memo.(r) <- Some None;
        let result =
          if ndefs.(r) > 1 then None
          else
            match defs.(r) with
            | None ->
              if r < nparams then
                Some { s_sym = S_param r; s_mem = false; s_allocas = [];
                       s_support = [] }
              else None
            | Some (pos, i) ->
              (match i with
               | I.Alloca _ ->
                 Some { s_sym = S_alloca r; s_mem = false; s_allocas = [ r ];
                        s_support = [] }
               | I.Cast { v; _ } -> of_op ~depth:(depth - 1) v
               | I.Bin { op; l; r = rr; _ } ->
                 combine2 ~depth (fun a b -> S_bin (op, a, b)) l rr
               | I.Cmp { op; l; r = rr; _ } ->
                 combine2 ~depth (fun a b -> S_cmp (op, a, b)) l rr
               | I.Load { addr; _ } ->
                 (match of_op ~depth:(depth - 1) addr with
                  | Some a ->
                    Some { s_sym = S_mem a.s_sym; s_mem = true;
                           s_allocas = a.s_allocas;
                           s_support = pos :: a.s_support }
                  | None -> None)
               | I.Gep { base; path; _ } ->
                 (match of_op ~depth:(depth - 1) base with
                  | Some b ->
                    let rec steps acc = function
                      | [] -> Some (List.rev acc)
                      | I.Field (_, off, sz) :: tl ->
                        steps (St_field (off, sz) :: acc) tl
                      | I.Index (ty, o) :: tl ->
                        (match of_op ~depth:(depth - 1) o with
                         | Some s ->
                           steps (St_index (ty, s.s_sym) :: acc) tl
                         | None -> None)
                    in
                    (* index sub-syms that read memory would need their own
                       freshness tracking; keep indices register-pure *)
                    (match steps [] path with
                     | Some ss
                       when List.for_all
                              (function
                                | St_index (_, S_mem _) -> false
                                | St_index _ | St_field _ -> true)
                              ss ->
                       Some { b with s_sym = S_gep (b.s_sym, ss) }
                     | Some _ | None -> None)
                  | None -> None)
               | I.Call _ | I.Intrin _ | I.Store _ -> None)
        in
        memo.(r) <- Some result;
        result
  and combine2 ~depth mk l rr =
    match of_op ~depth:(depth - 1) l, of_op ~depth:(depth - 1) rr with
    | Some a, Some b ->
      Some
        { s_sym = mk a.s_sym b.s_sym;
          s_mem = a.s_mem || b.s_mem;
          s_allocas = a.s_allocas @ b.s_allocas;
          s_support = a.s_support @ b.s_support }
    | _, _ -> None
  and of_op ~depth (o : I.operand) =
    match o with
    | I.Imm n -> Some { s_sym = S_imm n; s_mem = false; s_allocas = []; s_support = [] }
    | I.Nullp -> Some { s_sym = S_null; s_mem = false; s_allocas = []; s_support = [] }
    | I.Glob g -> Some { s_sym = S_glob g; s_mem = false; s_allocas = []; s_support = [] }
    | I.Fun f -> Some { s_sym = S_fun f; s_mem = false; s_allocas = []; s_support = [] }
    | I.Reg r -> of_reg ~depth r
  in
  fun (o : I.operand) -> of_op ~depth:24 o

(* Are the supporting loads of [si] locally fresh at position (b, idx)?
   Every contributing load must sit earlier in the same block with no
   fact-invalidating instruction strictly between it and the use. *)
let fresh_at (fn : Prog.func) (si : syminfo) ~block ~idx =
  (not si.s_mem)
  || (List.for_all
        (fun (p : An.Usedef.pos) -> p.An.Usedef.block = block && p.An.Usedef.idx < idx)
        si.s_support
      &&
      let first =
        List.fold_left
          (fun acc (p : An.Usedef.pos) -> min acc p.An.Usedef.idx)
          idx si.s_support
      in
      let instrs = fn.Prog.blocks.(block).Prog.instrs in
      let ok = ref true in
      for k = first + 1 to idx - 1 do
        match effect_of instrs.(k) with
        | Eff_none -> ()
        | Eff_kill_mem | Eff_kill_all -> ok := false
      done;
      !ok)

(* ---------- the pass ---------- *)

module ISet = Set.Make (Int)

type check_site = {
  cs_is_store : bool;
  cs_id : int; (* interned sym id *)
  cs_fresh : bool; (* supporting loads fresh at this site *)
}

let has_setjmp (fn : Prog.func) =
  let found = ref false in
  Prog.iter_instrs fn (fun i ->
      match i with
      | I.Intrin { op = I.I_setjmp; _ } -> found := true
      | _ -> ());
  !found

(** Drop provably redundant dereference checks in every function of an
    instrumented program; returns the certificates justifying each
    elision, for {!Levee_ir.Verify.check_elision}. *)
let run (prog : Prog.t) : Verify.elision_cert list =
  let certs = ref [] in
  Prog.iter_funcs prog (fun fn ->
      if not (has_setjmp fn) then begin
        let sym_of = build_syms fn in
        (* intern syms; record which facts read memory / root at allocas *)
        let ids : (sym, int) Hashtbl.t = Hashtbl.create 32 in
        let mem_ids = ref ISet.empty in
        let alloca_ids : (int, ISet.t ref) Hashtbl.t = Hashtbl.create 8 in
        let nids = ref 0 in
        let intern (si : syminfo) =
          match Hashtbl.find_opt ids si.s_sym with
          | Some id -> id
          | None ->
            let id = !nids in
            incr nids;
            Hashtbl.replace ids si.s_sym id;
            if si.s_mem then mem_ids := ISet.add id !mem_ids;
            List.iter
              (fun r ->
                let s =
                  match Hashtbl.find_opt alloca_ids r with
                  | Some s -> s
                  | None ->
                    let s = ref ISet.empty in
                    Hashtbl.replace alloca_ids r s;
                    s
                in
                s := ISet.add id !s)
              si.s_allocas;
            id
        in
        (* per block and index: the checked accesses with a usable sym *)
        let sites =
          Array.map
            (fun (b : Prog.block) ->
              Array.mapi
                (fun idx (i : I.instr) ->
                  match i with
                  | I.Load { addr; _ } | I.Store { addr; _ }
                    when snd (Prog.access fn b.Prog.bid idx) ->
                    Option.map
                      (fun si ->
                        { cs_is_store =
                            (match i with I.Store _ -> true | _ -> false);
                          cs_id = intern si;
                          cs_fresh = fresh_at fn si ~block:b.Prog.bid ~idx })
                      (sym_of addr)
                  | I.Load _ | I.Store _ | I.Alloca _ | I.Bin _ | I.Cmp _
                  | I.Gep _ | I.Cast _ | I.Call _ | I.Intrin _ -> None)
                b.Prog.instrs)
            fn.Prog.blocks
        in
        if !nids > 0 then begin
          let universe = ref ISet.empty in
          for k = 0 to !nids - 1 do
            universe := ISet.add k !universe
          done;
          let universe = !universe in
          (* A check generates its fact when the sym's supporting loads are
             fresh; stores generate only memory-free facts (their own write
             may alias a memory-reading sym). *)
          let gen_of (c : check_site) =
            if c.cs_fresh && not (c.cs_is_store && ISet.mem c.cs_id !mem_ids)
            then Some c.cs_id
            else None
          in
          let step (b : Prog.block) idx state (site : check_site option) =
            let i = b.Prog.instrs.(idx) in
            let state =
              match effect_of i with
              | Eff_kill_all -> ISet.empty
              | Eff_kill_mem -> ISet.diff state !mem_ids
              | Eff_none ->
                (match i with
                 | I.Alloca { dst; _ } ->
                   (match Hashtbl.find_opt alloca_ids dst with
                    | Some s -> ISet.diff state !s
                    | None -> state)
                 | I.Bin _ | I.Cmp _ | I.Load _ | I.Store _ | I.Gep _
                 | I.Cast _ | I.Call _ | I.Intrin _ -> state)
            in
            match site with
            | Some c -> (match gen_of c with
                         | Some id -> ISet.add id state
                         | None -> state)
            | None -> state
          in
          let transfer bid state =
            let b = fn.Prog.blocks.(bid) in
            let s = ref state in
            Array.iteri
              (fun idx _ -> s := step b idx !s sites.(bid).(idx))
              b.Prog.instrs;
            !s
          in
          let g = An.Dataflow.build fn in
          let avail_in =
            An.Dataflow.solve g ~entry:ISet.empty ~bottom:universe
              ~join:ISet.inter ~equal:ISet.equal ~transfer
          in
          (* Re-walk reachable blocks; a checked access whose fact is
             already available (and locally evaluable) is elided. The fact
             stays generated: on every path its first generator survives. *)
          Array.iter
            (fun (b : Prog.block) ->
              let bid = b.Prog.bid in
              if g.An.Dataflow.rpo_index.(bid) >= 0 then begin
                let s = ref avail_in.(bid) in
                Array.iteri
                  (fun idx _ ->
                    let site = sites.(bid).(idx) in
                    (match site with
                     | Some c when c.cs_fresh && ISet.mem c.cs_id !s ->
                       let where, _ = Prog.access fn bid idx in
                       Prog.decide fn bid idx (I.Access (where, false));
                       certs :=
                         { Verify.ce_func = fn.Prog.fname; ce_block = bid;
                           ce_idx = idx }
                         :: !certs
                     | Some _ | None -> ());
                    s := step b idx !s site)
                  b.Prog.instrs
              end)
            fn.Prog.blocks
        end
      end);
  List.rev !certs
