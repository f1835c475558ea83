(** Flow-insensitive, field-insensitive Andersen-style points-to analysis
    over Levee IR, interprocedural via a call graph over direct calls and
    type-compatible indirect-call targets.

    The abstract objects are allocation sites (globals, allocas, malloc
    sites) plus two pseudo-objects: [O_code], standing for every code
    address, and [O_unknown], standing for memory the analysis cannot
    model (int-to-pointer laundering, unresolved calls, parameters of
    address-taken functions). Inclusion constraints are solved to a
    fixpoint, then a transitive [reaches_code] closure marks every object
    whose contents may — through any chain of loads — yield a code
    pointer.

    Consumers: the sensitivity refinement ([refine_cpi]/[refine_cps])
    demotes accesses the type rule over-approximates as sensitive but
    whose points-to sets provably never reach a code pointer, and the
    [Diag] lint front end reports the classification. Everything here is
    deliberately monotone and conservative: imprecision only leaves extra
    instrumentation in place, never removes protection from a pointer
    that could carry a code pointer. *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog

type obj =
  | O_global of string
  | O_alloca of string * int (* function, alloca dst register *)
  | O_malloc of string * int * int (* function, block, instr index *)
  | O_fun of string (* the code address of one named function; always
                       seeded alongside [O_code] so every existing
                       reaches/demotion answer is unchanged — the named
                       object only adds precision for cfi-type *)
  | O_code (* any code address *)
  | O_unknown (* memory the analysis cannot model *)

module ISet = Set.Make (Int)

(* Points-to graph nodes: virtual registers, object contents (one cell
   per object — field-insensitive), function return values, and one
   synthetic node per distinct non-register operand so that [Glob]/[Fun]
   operands can seed base sets uniformly. *)
type node =
  | N_reg of string * int
  | N_obj of int
  | N_ret of string
  | N_op of I.operand

(* Inclusion constraints. [C_load]/[C_store]/[C_contents]/[C_store_obj]
   are the "complex" constraints re-expanded every round against the
   current solution. *)
type constr =
  | C_copy of int * int (* pts(src) ⊆ pts(dst) *)
  | C_load of int * int (* addr node, dst node *)
  | C_store of int * int (* value node, addr node *)
  | C_contents of int * int (* memcpy-style: dst addr node, src addr node *)
  | C_store_obj of int * int (* object id, addr node *)

type t = {
  prog : Prog.t;
  objs : obj array;
  obj_ids : (obj, int) Hashtbl.t;
  node_ids : (node, int) Hashtbl.t;
  obj_node : int array; (* object id -> node id of its contents *)
  pts : ISet.t array; (* node id -> points-to set (object ids) *)
  reaches : bool array; (* object id -> contents may reach a code pointer *)
  hazard : bool array; (* object id -> moved by memcpy/strcpy/setjmp *)
  code_id : int;
  unknown_id : int;
}

let fn_ty (g : Prog.func) =
  Ty.Fn (List.map snd g.Prog.params, g.Prog.ret_ty)

let analyze (prog : Prog.t) : t =
  ignore (Prog.compute_address_taken prog);
  let obj_ids : (obj, int) Hashtbl.t = Hashtbl.create 64 in
  let objs_rev = ref [] in
  let nobjs = ref 0 in
  let obj_id o =
    match Hashtbl.find_opt obj_ids o with
    | Some i -> i
    | None ->
      let i = !nobjs in
      incr nobjs;
      Hashtbl.replace obj_ids o i;
      objs_rev := o :: !objs_rev;
      i
  in
  let code_id = obj_id O_code in
  let unknown_id = obj_id O_unknown in
  let node_ids : (node, int) Hashtbl.t = Hashtbl.create 256 in
  let nnodes = ref 0 in
  let node_id n =
    match Hashtbl.find_opt node_ids n with
    | Some i -> i
    | None ->
      let i = !nnodes in
      incr nnodes;
      Hashtbl.replace node_ids n i;
      i
  in
  let base : (int, ISet.t ref) Hashtbl.t = Hashtbl.create 256 in
  let add_base n o =
    let r =
      match Hashtbl.find_opt base n with
      | Some r -> r
      | None ->
        let r = ref ISet.empty in
        Hashtbl.replace base n r;
        r
    in
    r := ISet.add o !r
  in
  let constrs = ref [] in
  let add_c c = constrs := c :: !constrs in
  let op_node fname (o : I.operand) =
    match o with
    | I.Reg r -> node_id (N_reg (fname, r))
    | I.Glob g ->
      let n = node_id (N_op o) in
      add_base n (obj_id (O_global g));
      n
    | I.Fun f ->
      let n = node_id (N_op o) in
      add_base n code_id;
      add_base n (obj_id (O_fun f));
      n
    | I.Imm _ | I.Nullp -> node_id (N_op o)
  in
  (* Global initializers: code addresses and global addresses stored in
     static data are contents facts. *)
  List.iter
    (fun (g : Prog.global) ->
      let oid = obj_id (O_global g.Prog.gname) in
      Array.iter
        (fun cell ->
          match cell with
          | Prog.Cint _ -> ()
          | Prog.Cfun f ->
            add_base (node_id (N_obj oid)) code_id;
            add_base (node_id (N_obj oid)) (obj_id (O_fun f))
          | Prog.Cglob (g2, _) ->
            add_base (node_id (N_obj oid)) (obj_id (O_global g2)))
        g.Prog.init)
    prog.Prog.globals;
  (* Address-taken functions may be entered from call sites the call
     graph cannot see; their parameters are unknown. *)
  let targets = ref [] in
  Prog.iter_funcs prog (fun fn ->
      if fn.Prog.address_taken then begin
        targets := fn :: !targets;
        List.iteri
          (fun i (_ : string * Ty.t) ->
            add_base (node_id (N_reg (fn.Prog.fname, i))) unknown_id)
          fn.Prog.params
      end);
  let targets = List.rev !targets in
  let hazard_args = ref [] in
  Prog.iter_funcs prog (fun fn ->
      let fname = fn.Prog.fname in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              match i with
              | I.Alloca { dst; _ } ->
                add_base
                  (node_id (N_reg (fname, dst)))
                  (obj_id (O_alloca (fname, dst)))
              | I.Bin { dst; l; r; _ } ->
                let d = node_id (N_reg (fname, dst)) in
                add_c (C_copy (op_node fname l, d));
                add_c (C_copy (op_node fname r, d))
              | I.Cmp _ -> ()
              | I.Load { dst; addr; _ } ->
                add_c (C_load (op_node fname addr, node_id (N_reg (fname, dst))))
              | I.Store { v; addr; _ } ->
                add_c (C_store (op_node fname v, op_node fname addr))
              | I.Gep { dst; base = bs; _ } ->
                add_c (C_copy (op_node fname bs, node_id (N_reg (fname, dst))))
              | I.Cast { dst; kind; v; _ } ->
                let d = node_id (N_reg (fname, dst)) in
                add_c (C_copy (op_node fname v, d));
                (match kind with
                 | I.IntToPtr -> add_base d unknown_id
                 | I.Bitcast | I.PtrToInt -> ())
              | I.Call { dst; callee; args; fty; _ } ->
                let link (g : Prog.func) =
                  let nparams = List.length g.Prog.params in
                  List.iteri
                    (fun k a ->
                      if k < nparams then
                        add_c
                          (C_copy
                             (op_node fname a, node_id (N_reg (g.Prog.fname, k)))))
                    args;
                  match dst with
                  | Some d ->
                    add_c
                      (C_copy
                         (node_id (N_ret g.Prog.fname), node_id (N_reg (fname, d))))
                  | None -> ()
                in
                let unresolved () =
                  match dst with
                  | Some d -> add_base (node_id (N_reg (fname, d))) unknown_id
                  | None -> ()
                in
                (match callee with
                 | I.Direct f ->
                   if Prog.has_func prog f then link (Prog.find_func prog f)
                   else unresolved ()
                 | I.Indirect _ ->
                   let compat =
                     List.filter (fun g -> Ty.equal fty (fn_ty g)) targets
                   in
                   let compat =
                     if compat = [] then
                       List.filter
                         (fun (g : Prog.func) ->
                           List.length g.Prog.params = List.length args)
                         targets
                     else compat
                   in
                   if compat = [] then unresolved ()
                   else List.iter link compat)
              | I.Intrin { dst; op; args } ->
                (match op, args with
                 | I.I_malloc, _ ->
                   (match dst with
                    | Some d ->
                      add_base
                        (node_id (N_reg (fname, d)))
                        (obj_id (O_malloc (fname, b.Prog.bid, idx)))
                    | None -> ())
                 | (I.I_memcpy | I.I_cpi_memcpy | I.I_strcpy), d :: s :: _ ->
                   add_c (C_contents (op_node fname d, op_node fname s));
                   hazard_args := (fname, d) :: (fname, s) :: !hazard_args
                 | (I.I_setjmp | I.I_longjmp), bufp :: _ ->
                   (* a jmp_buf stores a code (return) address *)
                   add_c (C_store_obj (code_id, op_node fname bufp));
                   hazard_args := (fname, bufp) :: !hazard_args
                 | I.I_thread_spawn, fp :: arg :: _ ->
                   (* the spawned function is an indirect-call target and
                      receives [arg] as its first parameter *)
                   hazard_args := (fname, fp) :: (fname, arg) :: !hazard_args;
                   (match fp with
                    | I.Fun f when Prog.has_func prog f ->
                      let g = Prog.find_func prog f in
                      if g.Prog.params <> [] then
                        add_c
                          (C_copy
                             (op_node fname arg,
                              node_id (N_reg (g.Prog.fname, 0))))
                    | _ -> ())
                 | I.I_atomic_add, p :: _ ->
                   hazard_args := (fname, p) :: !hazard_args
                 | _ -> ()))
            b.Prog.instrs;
          match b.Prog.term with
          | I.Ret (Some o) ->
            add_c (C_copy (op_node fname o, node_id (N_ret fname)))
          | I.Ret None | I.Br _ | I.Jmp _ | I.Switch _ | I.Unreachable -> ())
        fn.Prog.blocks);
  let objs = Array.of_list (List.rev !objs_rev) in
  let obj_node = Array.init (Array.length objs) (fun i -> node_id (N_obj i)) in
  (* loading through unmodelled memory yields unmodelled pointers *)
  add_base obj_node.(unknown_id) unknown_id;
  let n = !nnodes in
  let pts = Array.make (max n 1) ISet.empty in
  Hashtbl.iter (fun nid r -> pts.(nid) <- !r) base;
  let constrs = Array.of_list (List.rev !constrs) in
  let changed = ref true in
  let union src dst =
    if not (ISet.subset pts.(src) pts.(dst)) then begin
      pts.(dst) <- ISet.union pts.(dst) pts.(src);
      changed := true
    end
  in
  let iters = ref 0 in
  while !changed && !iters < 10_000 do
    changed := false;
    incr iters;
    Array.iter
      (fun c ->
        match c with
        | C_copy (s, d) -> union s d
        | C_load (a, d) -> ISet.iter (fun o -> union obj_node.(o) d) pts.(a)
        | C_store (v, a) -> ISet.iter (fun o -> union v obj_node.(o)) pts.(a)
        | C_contents (da, sa) ->
          ISet.iter
            (fun od ->
              ISet.iter (fun os -> union obj_node.(os) obj_node.(od)) pts.(sa))
            pts.(da)
        | C_store_obj (o, a) ->
          ISet.iter
            (fun od ->
              if not (ISet.mem o pts.(obj_node.(od))) then begin
                pts.(obj_node.(od)) <- ISet.add o pts.(obj_node.(od));
                changed := true
              end)
            pts.(a))
      constrs
  done;
  (* Transitive closure: an object reaches code when its contents can,
     through any chain of loads, yield a code pointer (or unmodelled
     memory, which must be assumed to). *)
  let nobj = Array.length objs in
  let reaches = Array.make nobj false in
  reaches.(code_id) <- true;
  reaches.(unknown_id) <- true;
  (* Named function objects ARE code: seed them like [O_code] so the
     closure (and every demotion decision downstream) is unchanged. *)
  Array.iteri
    (fun i o -> match o with O_fun _ -> reaches.(i) <- true | _ -> ())
    objs;
  let rchanged = ref true in
  while !rchanged do
    rchanged := false;
    for o = 0 to nobj - 1 do
      if (not reaches.(o)) && ISet.exists (fun o' -> reaches.(o')) pts.(obj_node.(o))
      then begin
        reaches.(o) <- true;
        rchanged := true
      end
    done
  done;
  (* Objects whose safe-store entries may be moved wholesale (memcpy and
     friends, jmp_bufs): never demote these — the type-aware intrinsic
     variants must keep seeing consistent routing. *)
  let hazard = Array.make nobj false in
  let t =
    { prog; objs; obj_ids; node_ids; obj_node; pts; reaches; hazard; code_id;
      unknown_id }
  in
  List.iter
    (fun (fname, arg) ->
      match arg with
      | I.Reg r ->
        (match Hashtbl.find_opt node_ids (N_reg (fname, r)) with
         | Some nid -> ISet.iter (fun o -> hazard.(o) <- true) pts.(nid)
         | None -> ())
      | I.Glob g ->
        (match Hashtbl.find_opt obj_ids (O_global g) with
         | Some o -> hazard.(o) <- true
         | None -> ())
      | I.Imm _ | I.Fun _ | I.Nullp -> ())
    !hazard_args;
  t

(* ---------- queries ---------- *)

let pts_ids t ~fname (o : I.operand) : ISet.t =
  match o with
  | I.Reg r ->
    (match Hashtbl.find_opt t.node_ids (N_reg (fname, r)) with
     | Some nid -> t.pts.(nid)
     | None -> ISet.empty)
  | I.Glob g ->
    (match Hashtbl.find_opt t.obj_ids (O_global g) with
     | Some i -> ISet.singleton i
     | None -> ISet.empty)
  | I.Fun _ -> ISet.singleton t.code_id
  | I.Imm _ | I.Nullp -> ISet.empty

let points_to t ~fname o : obj list =
  List.map (fun i -> t.objs.(i)) (ISet.elements (pts_ids t ~fname o))

let reaches_code t o =
  match Hashtbl.find_opt t.obj_ids o with
  | Some i -> t.reaches.(i)
  | None -> true

(* May the *memory addressed by* [o] (transitively) hold a code pointer?
   An empty points-to set means the address is unmodelled: assume yes. *)
let addr_may_reach_code t ~fname o =
  let s = pts_ids t ~fname o in
  ISet.is_empty s || ISet.exists (fun i -> t.reaches.(i)) s

(* May the *value* [o] itself be a code pointer? *)
let value_may_be_code t ~fname o =
  match o with
  | I.Fun _ -> true
  | _ ->
    ISet.exists
      (fun i -> i = t.code_id || i = t.unknown_id)
      (pts_ids t ~fname o)

let obj_to_string = function
  | O_global g -> Printf.sprintf "global:%s" g
  | O_alloca (f, r) -> Printf.sprintf "alloca:%s/r%d" f r
  | O_malloc (f, b, i) -> Printf.sprintf "malloc:%s/b%d.%d" f b i
  | O_fun f -> Printf.sprintf "fun:%s" f
  | O_code -> "<code>"
  | O_unknown -> "<unknown>"

(** Possible *named-function* targets of an indirect-call operand, read
    off the Andersen solution: [Some names] (sorted, deduplicated) when
    the operand's code sources are all named functions; [None] when the
    set is unmodelled (empty or containing [O_unknown]) or carries code
    provenance with no name (e.g. a setjmp-saved resume address). *)
let callee_targets t ~fname o : string list option =
  let s = pts_ids t ~fname o in
  if ISet.is_empty s || ISet.mem t.unknown_id s then None
  else
    let names =
      ISet.fold
        (fun i acc -> match t.objs.(i) with O_fun f -> f :: acc | _ -> acc)
        s []
    in
    if names = [] then None else Some (List.sort_uniq compare names)

(* ---------- sensitivity refinement ---------- *)

(* One memory access, as the consistency fixpoint sees it. *)
type acc = {
  ac_fname : string;
  ac_pos : int * int;
  ac_load : bool;
  ac_ty : Ty.t;
  ac_addr : I.operand;
  ac_dst : int; (* load destination register, -1 for stores *)
}

let collect_accesses prog =
  let accs = ref [] in
  Prog.iter_funcs prog (fun fn ->
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              match i with
              | I.Load { dst; ty; addr; _ } ->
                accs :=
                  { ac_fname = fn.Prog.fname; ac_pos = (b.Prog.bid, idx);
                    ac_load = true; ac_ty = ty; ac_addr = addr; ac_dst = dst }
                  :: !accs
              | I.Store { ty; addr; _ } ->
                accs :=
                  { ac_fname = fn.Prog.fname; ac_pos = (b.Prog.bid, idx);
                    ac_load = false; ac_ty = ty; ac_addr = addr; ac_dst = -1 }
                  :: !accs
              | I.Alloca _ | I.Bin _ | I.Cmp _ | I.Gep _ | I.Cast _ | I.Call _
              | I.Intrin _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks);
  List.rev !accs

(* Intrinsics through which a value loaded from a demoted (plain) object
   may flow without observable difference: they consume the value as
   data/string/size and never interact with per-pointer metadata. *)
let audit_ok_intrin (op : I.intrin) =
  match op with
  | I.I_strlen | I.I_strcmp | I.I_print_int | I.I_print_str | I.I_checksum
  | I.I_free | I.I_exit | I.I_abort | I.I_malloc | I.I_read_int
  | I.I_read_input | I.I_memset | I.I_cpi_memset -> true
  | I.I_memcpy | I.I_cpi_memcpy | I.I_strcpy | I.I_setjmp | I.I_longjmp
  | I.I_system | I.I_thread_spawn | I.I_thread_join | I.I_mutex_lock
  | I.I_mutex_unlock | I.I_atomic_add -> false

let refine_cpi t ~ctx ~usedef ~keep ~skip :
    (string * int * int, unit) Hashtbl.t =
  let accs = collect_accesses t.prog in
  let nobj = Array.length t.objs in
  let in_c = Array.make nobj false in
  Array.iteri
    (fun o obj ->
      in_c.(o) <-
        (match obj with
         | O_code | O_unknown | O_fun _ -> false
         | O_global _ | O_alloca _ | O_malloc _ ->
           (not t.reaches.(o)) && not t.hazard.(o)))
    t.objs;
  let sub_c s = (not (ISet.is_empty s)) && ISet.for_all (fun o -> in_c.(o)) s in
  let acc_pts a = pts_ids t ~fname:a.ac_fname a.ac_addr in
  let sensitive a = Sensitivity.is_sensitive ctx a.ac_ty in
  (* Demoting a load means the loaded register carries no metadata; that
     is only invisible when every (transitive) use is metadata-blind or
     itself part of the demoted family. *)
  let rec audit_uses ud fname ~depth reg =
    depth > 0
    && List.for_all
         (fun (u : Usedef.use) ->
           let pos_addr (p : Usedef.pos) =
             let fn = (ud : Usedef.t).Usedef.fn in
             match fn.Prog.blocks.(p.Usedef.block).Prog.instrs.(p.Usedef.idx)
             with
             | I.Load { ty; addr; _ } | I.Store { ty; addr; _ } -> Some (ty, addr)
             | I.Alloca _ | I.Bin _ | I.Cmp _ | I.Gep _ | I.Cast _ | I.Call _
             | I.Intrin _ -> None
           in
           let deref_ok p =
             match pos_addr p with
             | None -> false
             | Some (ty, addr) ->
               (match ty with
                | Ty.Char -> sub_c (pts_ids t ~fname addr)
                | _ when Sensitivity.is_sensitive ctx ty ->
                  sub_c (pts_ids t ~fname addr)
                | _ -> not (Sensitivity.deref_needs_check ctx ty))
           in
           match u with
           | Usedef.Cmp_op _ | Usedef.Branch_cond | Usedef.Gep_index _ -> true
           | Usedef.Bin_op (_, d) | Usedef.Gep_base (_, d)
           | Usedef.Cast_src (_, d, _) ->
             audit_uses ud fname ~depth:(depth - 1) d
           | Usedef.Load_addr (p, _) | Usedef.Store_addr (p, _) -> deref_ok p
           | Usedef.Store_val (p, _) ->
             (match pos_addr p with
              | Some (_, addr) -> sub_c (pts_ids t ~fname addr)
              | None -> false)
           | Usedef.Intrin_arg (_, op, _) -> audit_ok_intrin op
           | Usedef.Callee _ | Usedef.Call_arg _ | Usedef.Ret_val -> false)
         (Usedef.uses_of ud reg)
  in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 100 do
    changed := false;
    incr iters;
    List.iter
      (fun a ->
        if sensitive a && not (skip a.ac_fname a.ac_pos) then begin
          let s = acc_pts a in
          let demotable = (not (keep a.ac_fname a.ac_pos)) && sub_c s in
          let drop () =
            ISet.iter
              (fun o ->
                if in_c.(o) then begin
                  in_c.(o) <- false;
                  changed := true
                end)
              s
          in
          if not demotable then
            (* stays instrumented: the objects it touches must keep their
               safe-store routing everywhere *)
            drop ()
          else if a.ac_load
                  && not
                       (audit_uses (usedef a.ac_fname) a.ac_fname ~depth:8
                          a.ac_dst)
          then drop ()
        end)
      accs
  done;
  let result = Hashtbl.create 32 in
  List.iter
    (fun a ->
      if sensitive a
         && (not (skip a.ac_fname a.ac_pos))
         && (not (keep a.ac_fname a.ac_pos))
         && sub_c (acc_pts a)
      then
        let b, i = a.ac_pos in
        Hashtbl.replace result (a.ac_fname, b, i) ())
    accs;
  result

let refine_cps t ~instrumented ~skip : (string * int * int, unit) Hashtbl.t =
  let accs = collect_accesses t.prog in
  let never_code s =
    (not (ISet.is_empty s)) && ISet.for_all (fun o -> not t.reaches.(o)) s
  in
  let result = Hashtbl.create 32 in
  List.iter
    (fun a ->
      if instrumented a.ac_ty
         && (not (skip a.ac_fname a.ac_pos))
         && never_code (pts_ids t ~fname:a.ac_fname a.ac_addr)
      then
        let b, i = a.ac_pos in
        Hashtbl.replace result (a.ac_fname, b, i) ())
    accs;
  result
