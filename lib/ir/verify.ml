(** Structural IR verifier, run after lowering (the analogue of LLVM's
    module verifier): a build shares the lowered instructions and the
    passes write only its knobs, so nothing after lowering can break what
    it checks. A verification failure indicates a compiler bug, not a
    user error. *)

type error = { func : string; block : int; msg : string }

exception Invalid_ir of error

let fail func block fmt =
  Printf.ksprintf (fun msg -> raise (Invalid_ir { func; block; msg })) fmt

(* [globals] holds the program's global names. *)
let check_operand fname bid (p : Prog.t) globals nregs (o : Instr.operand) =
  match o with
  | Instr.Reg r ->
    if r < 0 || r >= nregs then fail fname bid "register %%r%d out of range" r
  | Instr.Glob g ->
    if not (Hashtbl.mem globals g) then fail fname bid "unknown global @%s" g
  | Instr.Fun f ->
    if not (Prog.has_func p f) then fail fname bid "unknown function &%s" f
  | Instr.Imm _ | Instr.Nullp -> ()

let check_block_id fname bid fn target =
  if target < 0 || target >= Array.length fn.Prog.blocks then
    fail fname bid "branch to unknown block b%d" target

(* Operand well-formedness (registers and destinations in range, known
   globals, functions and blocks). Whether a register is defined before
   it is used is not checked. *)
let check_func (p : Prog.t) globals (fn : Prog.func) =
  let fname = fn.fname in
  let def r bid =
    if r < 0 || r >= fn.nregs then fail fname bid "destination %%r%d out of range" r
  in
  Array.iter
    (fun (b : Prog.block) ->
      let bid = b.bid in
      let op o = check_operand fname bid p globals fn.nregs o in
      Array.iter
        (fun (i : Instr.instr) ->
          match i with
          | Instr.Alloca { dst; ty; _ } ->
            if Ty.size_of p.tenv ty = 0 then fail fname bid "alloca of zero-sized type";
            def dst bid
          | Instr.Bin { dst; l; r; _ } | Instr.Cmp { dst; l; r; _ } ->
            op l; op r; def dst bid
          | Instr.Load { dst; addr; ty; _ } ->
            op addr;
            if Ty.equal ty Ty.Void then fail fname bid "load of void";
            def dst bid
          | Instr.Store { v; addr; ty; _ } ->
            op v; op addr;
            if Ty.equal ty Ty.Void then fail fname bid "store of void"
          | Instr.Gep { dst; base; path; _ } ->
            op base;
            List.iter
              (function
                | Instr.Index (_, o) -> op o
                | Instr.Field (_, off, _) ->
                  if off < 0 then fail fname bid "negative field offset")
              path;
            def dst bid
          | Instr.Cast { dst; v; _ } -> op v; def dst bid
          | Instr.Call { dst; callee; args; _ } ->
            (match callee with
             | Instr.Direct f ->
               if not (Prog.has_func p f) then fail fname bid "call to unknown %s" f
             | Instr.Indirect o -> op o);
            List.iter op args;
            (match dst with Some d -> def d bid | None -> ())
          | Instr.Intrin { dst; args; _ } ->
            List.iter op args;
            (match dst with Some d -> def d bid | None -> ()))
        b.instrs;
      match b.term with
      | Instr.Ret None ->
        if not (Ty.equal fn.ret_ty Ty.Void) then
          fail fname bid "ret void in non-void function"
      | Instr.Ret (Some o) -> op o
      | Instr.Br (c, t1, t2) ->
        op c;
        check_block_id fname bid fn t1;
        check_block_id fname bid fn t2
      | Instr.Jmp t -> check_block_id fname bid fn t
      | Instr.Switch (o, cases, dflt) ->
        op o;
        List.iter (fun (_, t) -> check_block_id fname bid fn t) cases;
        check_block_id fname bid fn dflt
      | Instr.Unreachable -> ())
    fn.blocks;
  if Array.length fn.blocks = 0 then fail fname 0 "function has no blocks"

(** Verify a whole program; raises [Invalid_ir] on the first violation. *)
let program (p : Prog.t) =
  let globals = Hashtbl.create 64 in
  List.iter (fun (g : Prog.global) -> Hashtbl.replace globals g.gname ()) p.globals;
  Prog.iter_funcs p (check_func p globals)

(** [program_result p] is [Ok ()] or [Error message]. *)
let program_result p =
  match program p with
  | () -> Ok ()
  | exception Invalid_ir e ->
    Error (Printf.sprintf "%s (in %s, block b%d)" e.msg e.func e.block)

(* ---------- elision certificates ---------- *)

(* An elided dereference check, to be re-justified independently of the
   pass that removed it. The argument replayed here: a check is a pure
   function of the address register's value, metadata and the temporal
   liveness of its allocation — so if an equivalent check (equal symbolic
   address, with the memory cells it reads through unchanged) has passed
   on every path into this position, re-checking must pass again.

   This checker is deliberately self-contained: it rebuilds symbolic
   addresses and the must-availability argument from scratch rather than
   importing the pass's machinery, so a bug in the pass cannot vouch for
   itself. *)

type elision_cert = { ce_func : string; ce_block : int; ce_idx : int }

module Elim = struct
  type sym =
    | S_imm of int
    | S_null
    | S_glob of string
    | S_fun of string
    | S_alloca of int
    | S_param of int
    | S_mem of sym
    | S_bin of Instr.binop * sym * sym
    | S_cmp of Instr.cmpop * sym * sym
    | S_gep of sym * step list

  and step = St_field of int * int | St_index of Ty.t * sym

  type syminfo = {
    s_sym : sym;
    s_mem : bool;
    s_allocas : int list;
    s_support : (int * int) list; (* (block, idx) of contributing loads *)
  }

  let benign_intrin (op : Instr.intrin) =
    match op with
    | Instr.I_strlen | Instr.I_strcmp | Instr.I_print_int | Instr.I_print_str
    | Instr.I_checksum | Instr.I_read_int | Instr.I_malloc | Instr.I_exit
    | Instr.I_abort -> true
    | Instr.I_free | Instr.I_memcpy | Instr.I_memset | Instr.I_strcpy
    | Instr.I_read_input | Instr.I_setjmp | Instr.I_longjmp | Instr.I_system
    | Instr.I_thread_spawn | Instr.I_thread_join | Instr.I_mutex_lock
    | Instr.I_mutex_unlock | Instr.I_atomic_add -> false

  type effect = Eff_none | Eff_kill_mem | Eff_kill_all

  let effect_of (i : Instr.instr) =
    match i with
    | Instr.Store _ -> Eff_kill_mem
    | Instr.Call _ -> Eff_kill_all
    | Instr.Intrin { op; _ } ->
      if benign_intrin op then Eff_none else Eff_kill_all
    | Instr.Alloca _ | Instr.Bin _ | Instr.Cmp _ | Instr.Load _ | Instr.Gep _
    | Instr.Cast _ -> Eff_none

  let build_syms (fn : Prog.func) =
    let ndefs = Array.make fn.Prog.nregs 0 in
    let defs = Hashtbl.create 64 in
    Array.iter
      (fun (b : Prog.block) ->
        Array.iteri
          (fun idx (i : Instr.instr) ->
            let def r =
              if r >= 0 && r < fn.Prog.nregs then begin
                ndefs.(r) <- ndefs.(r) + 1;
                Hashtbl.replace defs r ((b.Prog.bid, idx), i)
              end
            in
            match i with
            | Instr.Alloca { dst; _ }
            | Instr.Bin { dst; _ }
            | Instr.Cmp { dst; _ }
            | Instr.Load { dst; _ }
            | Instr.Gep { dst; _ }
            | Instr.Cast { dst; _ } -> def dst
            | Instr.Call { dst; _ } | Instr.Intrin { dst; _ } ->
              (match dst with Some d -> def d | None -> ())
            | Instr.Store _ -> ())
          b.Prog.instrs)
      fn.Prog.blocks;
    let nparams = List.length fn.Prog.params in
    let memo : (int, syminfo option) Hashtbl.t = Hashtbl.create 64 in
    let pure si = Some { s_sym = si; s_mem = false; s_allocas = []; s_support = [] } in
    let rec of_reg ~depth r =
      if depth = 0 then None
      else
        match Hashtbl.find_opt memo r with
        | Some cached -> cached
        | None ->
          Hashtbl.replace memo r None;
          let result =
            if ndefs.(r) > 1 then None
            else
              match Hashtbl.find_opt defs r with
              | None -> if r < nparams then pure (S_param r) else None
              | Some (pos, i) ->
                (match i with
                 | Instr.Alloca _ ->
                   Some { s_sym = S_alloca r; s_mem = false; s_allocas = [ r ];
                          s_support = [] }
                 | Instr.Cast { v; _ } -> of_op ~depth:(depth - 1) v
                 | Instr.Bin { op; l; r = rr; _ } ->
                   combine2 ~depth (fun a b -> S_bin (op, a, b)) l rr
                 | Instr.Cmp { op; l; r = rr; _ } ->
                   combine2 ~depth (fun a b -> S_cmp (op, a, b)) l rr
                 | Instr.Load { addr; _ } ->
                   (match of_op ~depth:(depth - 1) addr with
                    | Some a ->
                      Some { s_sym = S_mem a.s_sym; s_mem = true;
                             s_allocas = a.s_allocas;
                             s_support = pos :: a.s_support }
                    | None -> None)
                 | Instr.Gep { base; path; _ } ->
                   (match of_op ~depth:(depth - 1) base with
                    | Some b ->
                      let rec steps acc = function
                        | [] -> Some (List.rev acc)
                        | Instr.Field (_, off, sz) :: tl ->
                          steps (St_field (off, sz) :: acc) tl
                        | Instr.Index (ty, o) :: tl ->
                          (match of_op ~depth:(depth - 1) o with
                           | Some s -> steps (St_index (ty, s.s_sym) :: acc) tl
                           | None -> None)
                      in
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
                 | Instr.Call _ | Instr.Intrin _ | Instr.Store _ -> None)
          in
          Hashtbl.replace memo r result;
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
    and of_op ~depth (o : Instr.operand) =
      match o with
      | Instr.Imm n -> pure (S_imm n)
      | Instr.Nullp -> pure S_null
      | Instr.Glob g -> pure (S_glob g)
      | Instr.Fun f -> pure (S_fun f)
      | Instr.Reg r -> of_reg ~depth r
    in
    fun (o : Instr.operand) -> of_op ~depth:24 o

  let fresh_at (fn : Prog.func) (si : syminfo) ~block ~idx =
    (not si.s_mem)
    || (List.for_all (fun (b, i) -> b = block && i < idx) si.s_support
        &&
        let first =
          List.fold_left (fun acc (_, i) -> min acc i) idx si.s_support
        in
        let instrs = fn.Prog.blocks.(block).Prog.instrs in
        let ok = ref true in
        for k = first + 1 to idx - 1 do
          match effect_of instrs.(k) with
          | Eff_none -> ()
          | Eff_kill_mem | Eff_kill_all -> ok := false
        done;
        !ok)

  let successors (t : Instr.term) =
    match t with
    | Instr.Ret _ | Instr.Unreachable -> []
    | Instr.Jmp b -> [ b ]
    | Instr.Br (_, b1, b2) -> [ b1; b2 ]
    | Instr.Switch (_, cases, dflt) -> List.map snd cases @ [ dflt ]

  let has_setjmp (fn : Prog.func) =
    let found = ref false in
    Prog.iter_instrs fn (fun i ->
        match i with
        | Instr.Intrin { op = Instr.I_setjmp; _ } -> found := true
        | _ -> ());
    !found
end

let check_elision (p : Prog.t) (certs : elision_cert list) :
    (unit, string) result =
  let open Elim in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let by_fn : (string, elision_cert list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt by_fn c.ce_func with
      | Some l -> l := c :: !l
      | None -> Hashtbl.replace by_fn c.ce_func (ref [ c ]))
    certs;
  let check_one (fn : Prog.func) sym_of (c : elision_cert) =
    if c.ce_block < 0 || c.ce_block >= Array.length fn.Prog.blocks then
      err "%s: certificate for unknown block b%d" c.ce_func c.ce_block
    else begin
      let b = fn.Prog.blocks.(c.ce_block) in
      if c.ce_idx < 0 || c.ce_idx >= Array.length b.Prog.instrs then
        err "%s: certificate for unknown instr b%d.%d" c.ce_func c.ce_block
          c.ce_idx
      else if has_setjmp fn then
        err "%s: elision inside a setjmp-calling function" c.ce_func
      else begin
        (* the certificate's access and its symbolic address *)
        let addr_of =
          match b.Prog.instrs.(c.ce_idx) with
          | Instr.Load { addr; _ } | Instr.Store { addr; _ }
            when not (snd (Prog.access fn c.ce_block c.ce_idx)) -> Some addr
          | Instr.Load _ | Instr.Store _ | Instr.Alloca _ | Instr.Bin _
          | Instr.Cmp _ | Instr.Gep _ | Instr.Cast _ | Instr.Call _
          | Instr.Intrin _ -> None
        in
        match addr_of with
        | None ->
          err "%s: certificate b%d.%d is not an unchecked memory access"
            c.ce_func c.ce_block c.ce_idx
        | Some addr ->
          (match sym_of addr with
           | None ->
             err "%s: b%d.%d address has no symbolic value" c.ce_func
               c.ce_block c.ce_idx
           | Some si ->
             if not (fresh_at fn si ~block:c.ce_block ~idx:c.ce_idx) then
               err "%s: b%d.%d supporting loads are not locally fresh"
                 c.ce_func c.ce_block c.ce_idx
             else begin
               (* Boolean must-availability of this cert's fact, generated
                  only at *surviving* (still-checked) equivalent checks. *)
               let n = Array.length fn.Prog.blocks in
               let reachable = Array.make n false in
               let rec dfs bid =
                 if not reachable.(bid) then begin
                   reachable.(bid) <- true;
                   List.iter dfs (successors fn.Prog.blocks.(bid).Prog.term)
                 end
               in
               if n > 0 then dfs 0;
               if not reachable.(c.ce_block) then
                 err "%s: b%d is unreachable from the entry" c.ce_func
                   c.ce_block
               else begin
                 let gen_here (blk : Prog.block) idx (i : Instr.instr) =
                   match i with
                   | Instr.Load { addr = a; _ } | Instr.Store { addr = a; _ }
                     when snd (Prog.access fn blk.Prog.bid idx) ->
                     (match sym_of a with
                      | Some si2 ->
                        si2.s_sym = si.s_sym
                        && fresh_at fn si2 ~block:blk.Prog.bid ~idx
                        && (match i with
                            | Instr.Store _ -> not si2.s_mem
                            | _ -> true)
                      | None -> false)
                   | Instr.Load _ | Instr.Store _ | Instr.Alloca _
                   | Instr.Bin _ | Instr.Cmp _ | Instr.Gep _ | Instr.Cast _
                   | Instr.Call _ | Instr.Intrin _ -> false
                 in
                 let step blk idx avail =
                   let i = blk.Prog.instrs.(idx) in
                   let avail =
                     match effect_of i with
                     | Eff_kill_all -> false
                     | Eff_kill_mem -> avail && not si.s_mem
                     | Eff_none ->
                       (match i with
                        | Instr.Alloca { dst; _ }
                          when List.mem dst si.s_allocas -> false
                        | Instr.Alloca _ | Instr.Bin _ | Instr.Cmp _
                        | Instr.Load _ | Instr.Store _ | Instr.Gep _
                        | Instr.Cast _ | Instr.Call _ | Instr.Intrin _ ->
                          avail)
                   in
                   avail || gen_here blk idx i
                 in
                 let transfer bid avail =
                   let blk = fn.Prog.blocks.(bid) in
                   let a = ref avail in
                   Array.iteri (fun idx _ -> a := step blk idx !a) blk.Prog.instrs;
                   !a
                 in
                 let preds = Array.make n [] in
                 Array.iter
                   (fun (blk : Prog.block) ->
                     List.iter
                       (fun s ->
                         if s >= 0 && s < n then
                           preds.(s) <- blk.Prog.bid :: preds.(s))
                       (successors blk.Prog.term))
                   fn.Prog.blocks;
                 let avail_out = Array.make n true in
                 (* optimistic init for the must-analysis; iterate down *)
                 let changed = ref true in
                 while !changed do
                   changed := false;
                   for bid = 0 to n - 1 do
                     if reachable.(bid) then begin
                       let inp =
                         if bid = 0 then false
                         else
                           List.fold_left
                             (fun acc pb ->
                               acc && (not reachable.(pb) || avail_out.(pb)))
                             true preds.(bid)
                       in
                       let out = transfer bid inp in
                       if out <> avail_out.(bid) then begin
                         avail_out.(bid) <- out;
                         changed := true
                       end
                     end
                   done
                 done;
                 let inp =
                   if c.ce_block = 0 then false
                   else
                     List.fold_left
                       (fun acc pb ->
                         acc && (not reachable.(pb) || avail_out.(pb)))
                       true preds.(c.ce_block)
                 in
                 let a = ref inp in
                 for k = 0 to c.ce_idx - 1 do
                   a := step b k !a
                 done;
                 if !a then Ok ()
                 else
                   err
                     "%s: b%d.%d check is not available on every path"
                     c.ce_func c.ce_block c.ce_idx
               end
             end)
      end
    end
  in
  Hashtbl.fold
    (fun fname certs acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        if not (Prog.has_func p fname) then
          err "certificate for unknown function %s" fname
        else begin
          let fn = Prog.find_func p fname in
          let sym_of = Elim.build_syms fn in
          List.fold_left
            (fun acc c ->
              match acc with Error _ -> acc | Ok () -> check_one fn sym_of c)
            (Ok ()) !certs
        end)
    by_fn (Ok ())

(* ---------- safe-region separation certificates ---------- *)

(* A certified plain store claims: the addresses this store can produce
   are rooted in the listed allocation sites, and none of those sites
   backs safe-region (CPI-protected) storage. The replay rebuilds both
   halves from the instrumented program alone — a local, single-def
   provenance walk for the roots, and the access knobs for the set of
   safe-resident sites — so a bug in the emitting analysis cannot
   vouch for itself. Addresses whose provenance is not locally decidable
   (loaded pointers, call results) are *not* certifiable; the model
   records safe accesses with such addresses as opaque, and the checker
   insists the emitter declared every one of them. *)

type sep_root =
  | Sr_global of string
  | Sr_alloca of int
  | Sr_malloc of int * int

type separation_cert = {
  sc_func : string;
  sc_block : int;
  sc_idx : int;
  sc_roots : sep_root list;
}

type separation_model = {
  sm_safe : (string * sep_root) list;
  sm_opaque : (string * int * int) list;
}

let sep_root_to_string = function
  | Sr_global g -> "global:" ^ g
  | Sr_alloca r -> Printf.sprintf "alloca:r%d" r
  | Sr_malloc (b, i) -> Printf.sprintf "malloc:b%d.%d" b i

(* Scope a root for cross-function comparison: globals are program-wide,
   stack and heap sites belong to their function. *)
let qualify_root fname = function
  | Sr_global g -> ("", Sr_global g)
  | r -> (fname, r)

module Sep = struct
  (* Roots of an address operand by a purely local walk over single-def
     register chains. [None] = opaque provenance (loaded pointer, call
     result, multiply-defined register, code address). [Some []] = a
     constant address naming no object. *)
  let build_roots (fn : Prog.func) =
    let ndefs = Array.make fn.Prog.nregs 0 in
    let defs = Hashtbl.create 64 in
    Array.iter
      (fun (b : Prog.block) ->
        Array.iteri
          (fun idx (i : Instr.instr) ->
            let def r =
              if r >= 0 && r < fn.Prog.nregs then begin
                ndefs.(r) <- ndefs.(r) + 1;
                Hashtbl.replace defs r ((b.Prog.bid, idx), i)
              end
            in
            match i with
            | Instr.Alloca { dst; _ }
            | Instr.Bin { dst; _ }
            | Instr.Cmp { dst; _ }
            | Instr.Load { dst; _ }
            | Instr.Gep { dst; _ }
            | Instr.Cast { dst; _ } -> def dst
            | Instr.Call { dst; _ } | Instr.Intrin { dst; _ } ->
              (match dst with Some d -> def d | None -> ())
            | Instr.Store _ -> ())
          b.Prog.instrs)
      fn.Prog.blocks;
    let memo : (int, sep_root list option) Hashtbl.t = Hashtbl.create 64 in
    let rec of_reg ~depth r =
      if depth = 0 then None
      else
        match Hashtbl.find_opt memo r with
        | Some cached -> cached
        | None ->
          Hashtbl.replace memo r None;
          let result =
            if ndefs.(r) > 1 then None
            else
              match Hashtbl.find_opt defs r with
              | None -> None (* parameter or undefined: opaque *)
              | Some ((bid, idx), i) ->
                (match i with
                 | Instr.Alloca _ -> Some [ Sr_alloca r ]
                 | Instr.Cast { v; _ } -> of_op ~depth:(depth - 1) v
                 | Instr.Gep { base; _ } -> of_op ~depth:(depth - 1) base
                 | Instr.Bin { l; r = rr; _ } ->
                   (match
                      (of_op ~depth:(depth - 1) l, of_op ~depth:(depth - 1) rr)
                    with
                    | Some a, Some b -> Some (a @ b)
                    | _, _ -> None)
                 | Instr.Intrin { op = Instr.I_malloc; _ } ->
                   Some [ Sr_malloc (bid, idx) ]
                 | Instr.Cmp _ | Instr.Load _ | Instr.Call _ | Instr.Intrin _
                 | Instr.Store _ -> None)
          in
          Hashtbl.replace memo r result;
          result
    and of_op ~depth (o : Instr.operand) =
      match o with
      | Instr.Glob g -> Some [ Sr_global g ]
      | Instr.Imm _ | Instr.Nullp -> Some []
      | Instr.Fun _ -> None
      | Instr.Reg r -> of_reg ~depth r
    in
    fun (o : Instr.operand) -> of_op ~depth:24 o

  let is_safe_where (w : Instr.where) =
    match w with
    | Instr.SafeFull | Instr.SafeValue | Instr.SafeDebug | Instr.SafeData ->
      true
    (* Crypt cells live in the regular region (ciphertext in place), so
       they are *not* part of the separated safe region. *)
    | Instr.Regular | Instr.RegularMeta | Instr.Crypt -> false
end

let check_separation (p : Prog.t) ~(model : separation_model)
    (certs : separation_cert list) : (unit, string) result =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let roots_of = Hashtbl.create 8 in
  let walker fname =
    match Hashtbl.find_opt roots_of fname with
    | Some w -> w
    | None ->
      let w = Sep.build_roots (Prog.find_func p fname) in
      Hashtbl.replace roots_of fname w;
      w
  in
  (* 1. The model must account for every safe-routed access: concrete
     provenance lands in [sm_safe], opaque provenance in [sm_opaque]. *)
  let audit =
    Prog.fold_funcs p
      (fun acc fn ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          let fname = fn.Prog.fname in
          let w = walker fname in
          Array.fold_left
            (fun acc (b : Prog.block) ->
              let bid = b.Prog.bid in
              let n = Array.length b.Prog.instrs in
              let rec go acc idx =
                if idx >= n then acc
                else
                  match acc with
                  | Error _ -> acc
                  | Ok () ->
                    let where, _ = Prog.access fn bid idx in
                    let addr =
                      match b.Prog.instrs.(idx) with
                      | Instr.Load { addr; _ } | Instr.Store { addr; _ }
                        when Sep.is_safe_where where -> Some addr
                      | _ -> None
                    in
                    let acc =
                      match addr with
                      | None -> Ok ()
                      | Some addr ->
                        (match w addr with
                         | Some roots ->
                           (try
                              let missing =
                                List.find
                                  (fun r ->
                                    not
                                      (List.mem (qualify_root fname r)
                                         model.sm_safe))
                                  roots
                              in
                              err
                                "%s: safe access b%d.%d root %s missing from \
                                 the separation model"
                                fname bid idx (sep_root_to_string missing)
                            with Not_found -> Ok ())
                         | None ->
                           if List.mem (fname, bid, idx) model.sm_opaque then
                             Ok ()
                           else
                             err
                               "%s: safe access b%d.%d has opaque provenance \
                                not declared by the model"
                               fname bid idx)
                    in
                    go acc (idx + 1)
              in
              go acc 0)
            acc fn.Prog.blocks)
      (Ok ())
  in
  match audit with
  | Error _ as e -> e
  | Ok () ->
    (* 2. Replay each certificate. *)
    List.fold_left
      (fun acc (c : separation_cert) ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if not (Prog.has_func p c.sc_func) then
            err "separation certificate for unknown function %s" c.sc_func
          else begin
            let fn = Prog.find_func p c.sc_func in
            if c.sc_block < 0 || c.sc_block >= Array.length fn.Prog.blocks
            then
              err "%s: separation certificate for unknown block b%d" c.sc_func
                c.sc_block
            else begin
              let b = fn.Prog.blocks.(c.sc_block) in
              if c.sc_idx < 0 || c.sc_idx >= Array.length b.Prog.instrs then
                err "%s: separation certificate for unknown instr b%d.%d"
                  c.sc_func c.sc_block c.sc_idx
              else begin
                let where, _ = Prog.access fn c.sc_block c.sc_idx in
                match b.Prog.instrs.(c.sc_idx) with
                | Instr.Store { addr; _ } when where = Instr.Regular ->
                  (match walker c.sc_func addr with
                   | None ->
                     err
                       "%s: certified store b%d.%d has opaque provenance"
                       c.sc_func c.sc_block c.sc_idx
                   | Some roots ->
                     (try
                        let stray =
                          List.find
                            (fun r -> not (List.mem r c.sc_roots))
                            roots
                        in
                        err
                          "%s: store b%d.%d reaches unclaimed root %s"
                          c.sc_func c.sc_block c.sc_idx
                          (sep_root_to_string stray)
                      with Not_found ->
                        (try
                           let unsafe =
                             List.find
                               (fun r ->
                                 List.mem
                                   (qualify_root c.sc_func r)
                                   model.sm_safe)
                               c.sc_roots
                           in
                           err
                             "%s: store b%d.%d claims safe-resident root %s \
                              as separate"
                             c.sc_func c.sc_block c.sc_idx
                             (sep_root_to_string unsafe)
                         with Not_found -> Ok ())))
                | Instr.Store _ ->
                  err "%s: certificate b%d.%d is not a plain store" c.sc_func
                    c.sc_block c.sc_idx
                | _ ->
                  err "%s: certificate b%d.%d is not a store" c.sc_func
                    c.sc_block c.sc_idx
              end
            end
          end)
      (Ok ()) certs

(** The replay's provenance walker, exported so the emitting analysis can
    phrase its claims in the exact vocabulary the replay re-derives. *)
let local_roots = Sep.build_roots
