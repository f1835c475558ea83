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

    The solver numbers its nodes densely. Each function owns a block of
    nodes: one per register, then one for its return value, so a
    register's node is its function's base plus the register number.
    Each object gets a node for its contents and, when a [Glob] or [Fun]
    operand names it, one seeded node for its constant address. An
    indirect call links to the address-taken functions of its signature
    class through a hub, one node per parameter and one for the return
    value, shared by every call of that type and arity, instead of to
    every member directly; the least solution at every register, return
    value and object is the same. The constraints are then re-applied
    round-robin until a round changes nothing, skipping each constraint
    none of whose inputs grew since it last ran. The lattice is finite,
    so this terminates; there is no iteration cap.

    [analyze] reads its input and never writes it, and the solution it
    returns is immutable, with no lazy parts: one solve may be read from
    several domains at once.

    Consumers: the sensitivity refinement ([refine_cpi]/[refine_cps])
    demotes accesses the type rule over-approximates as sensitive but
    whose points-to sets provably never reach a code pointer, the
    cfi-type pass reads the signature classes and callee sets, and the
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

(* The first two objects, in discovery order. *)
let code_id = 0
let unknown_id = 1

(* A function's nodes: registers [base, base + nregs), then its return
   value at [base + nregs]. *)
type slots = { base : int; nregs : int; nparams : int }

(* The address-taken functions an indirect call may enter, and the hub
   that links the calls of one type and arity to them: parameter [k] at
   node [hub + k], the return value at [hub + nparams]. *)
type sig_class = { members : string list; nparams : int; hub : int }

type target = { tname : string; tty : Ty.t; tslots : slots }

type t = {
  source : Prog.t;
  objs : obj array;
  globals : (string, int) Hashtbl.t;  (* [O_global] objects by name *)
  funs : (string, int) Hashtbl.t;     (* [O_fun] objects by name *)
  sites : (obj, int) Hashtbl.t;       (* [O_alloca] and [O_malloc] objects *)
  slots : (string, slots) Hashtbl.t;
  obj_node : int array; (* object id -> node id of its contents *)
  pts : ISet.t array; (* node id -> points-to set (object ids) *)
  reaches : bool array; (* object id -> contents may reach a code pointer *)
  hazard : bool array; (* object id -> moved by memcpy/strcpy/setjmp *)
  targets : target list; (* address-taken functions, in program order *)
  classes : (Ty.t * int, sig_class) Hashtbl.t; (* by call type and arity *)
}

(* A growable buffer of ints: seed facts and constraints, as pairs. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let push2 v x y = push v x; push v y
end

let fn_ty (g : Prog.func) =
  Ty.Fn (List.map snd g.Prog.params, g.Prog.ret_ty)

(* The signature class of an indirect call: the address-taken functions
   of exactly its type or, when there are none, those of its arity. *)
let class_members targets fty arity =
  match List.filter (fun tg -> Ty.equal fty tg.tty) targets with
  | [] -> List.filter (fun tg -> tg.tslots.nparams = arity) targets
  | typed -> typed

let analyze (prog : Prog.t) : t =
  let slots = Hashtbl.create 64 in
  let nn = ref 0 in
  Prog.iter_funcs prog (fun fn ->
      Hashtbl.replace slots fn.Prog.fname
        { base = !nn; nregs = fn.Prog.nregs;
          nparams = List.length fn.Prog.params };
      nn := !nn + fn.Prog.nregs + 1);
  let fresh_nodes k =
    let n = !nn in
    nn := n + k;
    n
  in
  (* Objects are numbered in first-discovery order, so [points_to]'s
     order is part of the contract. *)
  let objs = ref [] and nobjs = ref 0 in
  let obj_node = Vec.create () and addr_node = Vec.create () in
  let new_obj o =
    let i = !nobjs in
    incr nobjs;
    objs := o :: !objs;
    Vec.push obj_node (fresh_nodes 1);
    Vec.push addr_node (-1);
    i
  in
  ignore (new_obj O_code);
  ignore (new_obj O_unknown);
  let globals = Hashtbl.create 64 and funs = Hashtbl.create 64 in
  let sites = Hashtbl.create 256 in
  let find_or_add tbl key mk =
    match Hashtbl.find_opt tbl key with
    | Some i -> i
    | None ->
      let i = new_obj (mk key) in
      Hashtbl.replace tbl key i;
      i
  in
  let global_obj g = find_or_add globals g (fun g -> O_global g) in
  let fun_obj f = find_or_add funs f (fun f -> O_fun f) in
  let site_obj o = find_or_add sites o Fun.id in
  let node_of o = obj_node.Vec.a.(o) in
  let seeds = Vec.create () in (* node, object *)
  let copies = Vec.create () in (* pts(src) ⊆ pts(dst): src, dst *)
  let loads = Vec.create () in (* addr, dst *)
  let stores = Vec.create () in (* value, addr *)
  let contents = Vec.create () in (* memcpy-style: dst addr, src addr *)
  let store_objs = Vec.create () in (* object, addr *)
  let seed n o = Vec.push2 seeds n o in
  (* An operand's node; [none] for an immediate or null, whose set is
     empty. A constant address ([Glob], [Fun]) gets one node per object,
     seeded once; a [Fun]'s also holds [O_code]. *)
  let none = -1 in
  let const ?(code = false) o =
    if addr_node.Vec.a.(o) < 0 then begin
      let n = fresh_nodes 1 in
      if code then seed n code_id;
      seed n o;
      addr_node.Vec.a.(o) <- n
    end;
    addr_node.Vec.a.(o)
  in
  let edge v x y = if x <> none && y <> none then Vec.push2 v x y in
  let copy = edge copies and load = edge loads and store = edge stores in
  let move_contents = edge contents in
  let store_obj = edge store_objs in
  (* Global initializers: code addresses and global addresses stored in
     static data are contents facts. *)
  List.iter
    (fun (g : Prog.global) ->
      let oid = global_obj g.Prog.gname in
      Array.iter
        (fun cell ->
          match cell with
          | Prog.Cint _ -> ()
          | Prog.Cfun f ->
            seed (node_of oid) code_id;
            seed (node_of oid) (fun_obj f)
          | Prog.Cglob (g2, _) -> seed (node_of oid) (global_obj g2))
        g.Prog.init)
    prog.Prog.globals;
  (* Address-taken functions may be entered from call sites the call
     graph cannot see; their parameters are unknown. *)
  let targets = ref [] in
  Prog.iter_funcs prog (fun fn ->
      if fn.Prog.address_taken then begin
        let s = Hashtbl.find slots fn.Prog.fname in
        targets :=
          { tname = fn.Prog.fname; tty = fn_ty fn; tslots = s } :: !targets;
        for k = 0 to s.nparams - 1 do
          seed (s.base + k) unknown_id
        done
      end);
  let targets = List.rev !targets in
  (* One hub per call type and arity: parameter k flows to every
     member's register k, every member's return value to the hub's. *)
  let classes = Hashtbl.create 16 in
  let class_of fty arity =
    match Hashtbl.find_opt classes (fty, arity) with
    | Some c -> c
    | None ->
      let members = class_members targets fty arity in
      let c =
        match members with
        | [] -> { members = []; nparams = 0; hub = none }
        | first :: _ ->
          let nparams = first.tslots.nparams in
          let hub = fresh_nodes (nparams + 1) in
          List.iter
            (fun tg ->
              let s = tg.tslots in
              for k = 0 to nparams - 1 do
                Vec.push2 copies (hub + k) (s.base + k)
              done;
              Vec.push2 copies (s.base + s.nregs) (hub + nparams))
            members;
          { members = List.map (fun tg -> tg.tname) members; nparams; hub }
      in
      Hashtbl.replace classes (fty, arity) c;
      c
  in
  let hazard_nodes = Vec.create () and hazard_globals = ref [] in
  Prog.iter_funcs prog (fun fn ->
      let fname = fn.Prog.fname in
      let { base; nregs; _ } = Hashtbl.find slots fname in
      let src (o : I.operand) =
        match o with
        | I.Reg r -> base + r
        | I.Glob g -> const (global_obj g)
        | I.Fun f -> const ~code:true (fun_obj f)
        | I.Imm _ | I.Nullp -> none
      in
      let hazard (o : I.operand) =
        match o with
        | I.Reg r -> Vec.push hazard_nodes (base + r)
        | I.Glob g -> hazard_globals := g :: !hazard_globals
        | I.Imm _ | I.Fun _ | I.Nullp -> ()
      in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              match i with
              | I.Alloca { dst; _ } ->
                seed (base + dst) (site_obj (O_alloca (fname, dst)))
              | I.Bin { dst; l; r; _ } ->
                copy (src l) (base + dst);
                copy (src r) (base + dst)
              | I.Cmp _ -> ()
              | I.Load { dst; addr; _ } -> load (src addr) (base + dst)
              | I.Store { v; addr; _ } -> store (src v) (src addr)
              | I.Gep { dst; base = bs; _ } -> copy (src bs) (base + dst)
              | I.Cast { dst; kind; v; _ } ->
                copy (src v) (base + dst);
                (match kind with
                 | I.IntToPtr -> seed (base + dst) unknown_id
                 | I.Bitcast | I.PtrToInt -> ())
              | I.Call { dst; callee; args; fty; _ } ->
                let link ~params ~ret nparams =
                  List.iteri
                    (fun k a -> if k < nparams then copy (src a) (params + k))
                    args;
                  Option.iter (fun d -> copy ret (base + d)) dst
                in
                let unresolved () =
                  Option.iter (fun d -> seed (base + d) unknown_id) dst
                in
                (match callee with
                 | I.Direct f ->
                   (match Hashtbl.find_opt slots f with
                    | Some s ->
                      link ~params:s.base ~ret:(s.base + s.nregs) s.nparams
                    | None -> unresolved ())
                 | I.Indirect _ ->
                   let c = class_of fty (List.length args) in
                   if c.members = [] then unresolved ()
                   else link ~params:c.hub ~ret:(c.hub + c.nparams) c.nparams)
              | I.Intrin { dst; op; args } ->
                (match op, args with
                 | I.I_malloc, _ ->
                   Option.iter
                     (fun d ->
                       seed (base + d)
                         (site_obj (O_malloc (fname, b.Prog.bid, idx))))
                     dst
                 | (I.I_memcpy | I.I_cpi_memcpy | I.I_strcpy), d :: s :: _ ->
                   move_contents (src d) (src s);
                   hazard d;
                   hazard s
                 | (I.I_setjmp | I.I_longjmp), bufp :: _ ->
                   (* a jmp_buf stores a code (return) address *)
                   store_obj code_id (src bufp);
                   hazard bufp
                 | I.I_thread_spawn, fp :: arg :: _ ->
                   (* the spawned function is an indirect-call target and
                      receives [arg] as its first parameter *)
                   hazard fp;
                   hazard arg;
                   (match fp with
                    | I.Fun f ->
                      (match Hashtbl.find_opt slots f with
                       | Some s when s.nparams > 0 -> copy (src arg) s.base
                       | Some _ | None -> ())
                    | _ -> ())
                 | I.I_atomic_add, p :: _ -> hazard p
                 | _ -> ()))
            b.Prog.instrs;
          match b.Prog.term with
          | I.Ret (Some o) -> copy (src o) (base + nregs)
          | I.Ret None | I.Br _ | I.Jmp _ | I.Switch _ | I.Unreachable -> ())
        fn.Prog.blocks);
  let objs = Array.of_list (List.rev !objs) in
  let nobj = Array.length objs in
  let obj_node = Array.sub obj_node.Vec.a 0 nobj in
  (* loading through unmodelled memory yields unmodelled pointers *)
  seed obj_node.(unknown_id) unknown_id;
  let pts = Array.make (max !nn 1) ISet.empty in
  for i = 0 to (seeds.Vec.n / 2) - 1 do
    let n = seeds.Vec.a.(2 * i) in
    pts.(n) <- ISet.add seeds.Vec.a.((2 * i) + 1) pts.(n)
  done;
  (* Round-robin, skipping a constraint none of whose inputs grew since
     it was last applied: [stamp] holds the clock at each node's last
     growth, [seen] the clock when each constraint last read its inputs. *)
  let clock = ref 0 in
  let stamp = Array.make (Array.length pts) 0 in
  let grow n s =
    pts.(n) <- s;
    incr clock;
    stamp.(n) <- !clock
  in
  let union src dst =
    if not (ISet.subset pts.(src) pts.(dst)) then
      grow dst (ISet.union pts.(dst) pts.(src))
  in
  let grew t n = stamp.(n) > t in
  let any_grew t s = ISet.exists (fun o -> grew t obj_node.(o)) s in
  let sweep (v : Vec.t) =
    let seen = Array.make (v.Vec.n / 2) (-1) in
    fun stale apply ->
      let a = v.Vec.a in
      for i = 0 to Array.length seen - 1 do
        let x = a.(2 * i) and y = a.((2 * i) + 1) in
        let t = seen.(i) in
        if stale t x y then begin
          seen.(i) <- !clock;
          apply x y
        end
      done
  in
  let copies = sweep copies and loads = sweep loads and stores = sweep stores
  and contents = sweep contents and store_objs = sweep store_objs in
  let changed = ref true in
  while !changed do
    let before = !clock in
    copies (fun t s _ -> grew t s) union;
    loads
      (fun t a _ -> grew t a || any_grew t pts.(a))
      (fun a d -> ISet.iter (fun o -> union obj_node.(o) d) pts.(a));
    stores
      (fun t v a -> grew t v || grew t a)
      (fun v a -> ISet.iter (fun o -> union v obj_node.(o)) pts.(a));
    contents
      (fun t da sa -> grew t da || grew t sa || any_grew t pts.(sa))
      (fun da sa ->
        ISet.iter
          (fun od ->
            ISet.iter (fun os -> union obj_node.(os) obj_node.(od)) pts.(sa))
          pts.(da));
    store_objs
      (fun t _ a -> grew t a)
      (fun o a ->
        ISet.iter
          (fun od ->
            let n = obj_node.(od) in
            if not (ISet.mem o pts.(n)) then grow n (ISet.add o pts.(n)))
          pts.(a));
    changed := !clock > before
  done;
  (* Transitive closure: an object reaches code when its contents can,
     through any chain of loads, yield a code pointer (or unmodelled
     memory, which must be assumed to). *)
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
  for i = 0 to hazard_nodes.Vec.n - 1 do
    ISet.iter (fun o -> hazard.(o) <- true) pts.(hazard_nodes.Vec.a.(i))
  done;
  List.iter
    (fun g ->
      Option.iter (fun o -> hazard.(o) <- true) (Hashtbl.find_opt globals g))
    !hazard_globals;
  { source = prog; objs; globals; funs; sites; slots; obj_node; pts; reaches;
    hazard; targets; classes }

(* ---------- queries ---------- *)

let source t = t.source

(* An operand's points-to set, in the function whose nodes are [slots]. *)
let pts_in t (slots : slots option) (o : I.operand) : ISet.t =
  match o with
  | I.Reg r ->
    (match slots with
     | Some s when r >= 0 && r < s.nregs -> t.pts.(s.base + r)
     | Some _ | None -> ISet.empty)
  | I.Glob g ->
    (match Hashtbl.find_opt t.globals g with
     | Some i -> ISet.singleton i
     | None -> ISet.empty)
  | I.Fun _ -> ISet.singleton code_id
  | I.Imm _ | I.Nullp -> ISet.empty

let pts_ids t ~fname o = pts_in t (Hashtbl.find_opt t.slots fname) o

let points_to t ~fname o : obj list =
  List.map (fun i -> t.objs.(i)) (ISet.elements (pts_ids t ~fname o))

let obj_id t (o : obj) =
  match o with
  | O_code -> Some code_id
  | O_unknown -> Some unknown_id
  | O_global g -> Hashtbl.find_opt t.globals g
  | O_fun f -> Hashtbl.find_opt t.funs f
  | O_alloca _ | O_malloc _ -> Hashtbl.find_opt t.sites o

let reaches_code t o =
  match obj_id t o with
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
      (fun i -> i = code_id || i = unknown_id)
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
  if ISet.is_empty s || ISet.mem unknown_id s then None
  else
    let names =
      ISet.fold
        (fun i acc -> match t.objs.(i) with O_fun f -> f :: acc | _ -> acc)
        s []
    in
    if names = [] then None else Some (List.sort_uniq compare names)

let signature_class t ~fty ~arity =
  match Hashtbl.find_opt t.classes (fty, arity) with
  | Some c -> c.members
  | None -> List.map (fun tg -> tg.tname) (class_members t.targets fty arity)

(* ---------- sensitivity refinement ---------- *)

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

(* Every load and store of [prog] whose type [select] accepts and that
   [skip] does not exclude, per function: [visit fname slots marks pos
   load dst addr] (dst is -1 for a store). Each function's [marks] is the
   empty set the result table holds for it. *)
let iter_accesses t prog ~select ~skip visit =
  let out = Hashtbl.create 64 in
  Prog.iter_funcs prog (fun fn ->
      let fname = fn.Prog.fname in
      let slots = Hashtbl.find_opt t.slots fname in
      let skip = skip fname in
      let marks = Usedef.marks fn in
      Hashtbl.replace out fname marks;
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              match i with
              | I.Load { ty; dst; addr; _ } when select ty ->
                let pos = (b.Prog.bid, idx) in
                if not (skip pos) then visit fname slots marks pos true dst addr
              | I.Store { ty; addr; _ } when select ty ->
                let pos = (b.Prog.bid, idx) in
                if not (skip pos) then visit fname slots marks pos false (-1) addr
              | I.Load _ | I.Store _ | I.Alloca _ | I.Bin _ | I.Cmp _ | I.Gep _
              | I.Cast _ | I.Call _ | I.Intrin _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks);
  out

(* A candidate for CPI demotion, with the facts no round changes. *)
type cand = {
  c_marks : Usedef.marks;
  c_pos : int * int;
  c_pts : ISet.t;
  c_audit : (int * Usedef.t * slots option) option;
      (* a load: its destination, whose uses are audited, and its function *)
}

let refine_cpi t prog ~ctx ~usedef ~pinned ~keep ~skip :
    (string, Usedef.marks) Hashtbl.t =
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
  let changed = ref false in
  let drop s =
    ISet.iter
      (fun o ->
        if in_c.(o) then begin
          in_c.(o) <- false;
          changed := true
        end)
      s
  in
  let pinned =
    List.fold_left
      (fun acc g ->
        match Hashtbl.find_opt t.globals g with
        | Some o -> ISet.add o acc
        | None -> acc)
      ISet.empty pinned
  in
  (* An access that stays instrumented (kept, or touching a pinned
     global) drops its objects once: they must keep their safe-store
     routing everywhere. The rest are the candidates. *)
  let cands = ref [] in
  let out =
    iter_accesses t prog ~select:(Sensitivity.is_sensitive ctx) ~skip
      (fun fname slots marks pos load dst addr ->
        let s = pts_in t slots addr in
        if keep fname pos || not (ISet.disjoint s pinned) then drop s
        else
          cands :=
            { c_marks = marks; c_pos = pos; c_pts = s;
              c_audit = (if load then Some (dst, usedef fname, slots) else None) }
            :: !cands)
  in
  let cands = List.rev !cands in
  (* Demoting a load means the loaded register carries no metadata; that
     is only invisible when every (transitive) use is metadata-blind or
     itself part of the demoted family. *)
  let rec audit_uses (ud : Usedef.t) slots ~depth reg =
    depth > 0
    && List.for_all
         (fun (u : Usedef.use) ->
           let pos_addr (p : Usedef.pos) =
             match
               (Usedef.func ud).Prog.blocks.(p.Usedef.block).Prog.instrs.(p.Usedef.idx)
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
                | Ty.Char -> sub_c (pts_in t slots addr)
                | _ when Sensitivity.is_sensitive ctx ty ->
                  sub_c (pts_in t slots addr)
                | _ -> not (Sensitivity.deref_needs_check ctx ty))
           in
           match u with
           | Usedef.Cmp_op _ | Usedef.Branch_cond | Usedef.Gep_index _ -> true
           | Usedef.Bin_op (_, d) | Usedef.Gep_base (_, d)
           | Usedef.Cast_src (_, d, _) ->
             audit_uses ud slots ~depth:(depth - 1) d
           | Usedef.Load_addr (p, _) | Usedef.Store_addr (p, _) -> deref_ok p
           | Usedef.Store_val (p, _) ->
             (match pos_addr p with
              | Some (_, addr) -> sub_c (pts_in t slots addr)
              | None -> false)
           | Usedef.Intrin_arg (_, op, _) -> audit_ok_intrin op
           | Usedef.Callee _ | Usedef.Call_arg _ | Usedef.Ret_val -> false)
         (Usedef.uses_of ud reg)
  in
  (* [in_c] only flips from true to false, so this ends within (number of
     objects + 1) rounds; a candidate whose set has left [in_c] for good
     needs no further look. *)
  let rec fixpoint cands =
    changed := false;
    let live =
      List.filter
        (fun c ->
          if not (sub_c c.c_pts) then (drop c.c_pts; false)
          else begin
            (match c.c_audit with
             | Some (dst, ud, slots) when not (audit_uses ud slots ~depth:8 dst) ->
               drop c.c_pts
             | Some _ | None -> ());
            true
          end)
        cands
    in
    if !changed then fixpoint live else live
  in
  (* the survivors of a round that dropped nothing all lie in [in_c] *)
  List.iter (fun c -> Usedef.mark c.c_marks c.c_pos) (fixpoint cands);
  out

let refine_cps t prog ~instrumented ~skip : (string, Usedef.marks) Hashtbl.t =
  let never_code s =
    (not (ISet.is_empty s)) && ISet.for_all (fun o -> not t.reaches.(o)) s
  in
  iter_accesses t prog ~select:instrumented ~skip
    (fun _ slots marks pos _ _ addr ->
      if never_code (pts_in t slots addr) then Usedef.mark marks pos)
