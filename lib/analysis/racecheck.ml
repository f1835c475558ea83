(** Static race detection and safe-region separation (see the .mli). *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog
module V = Levee_ir.Verify

(* ---------- potential data races ---------- *)

type site = {
  st_func : string;
  st_block : int;
  st_idx : int;
  st_write : bool;
  st_locked : bool;
}

type race = {
  rc_obj : string;
  rc_storage : string;
  rc_sites : site list;
}

type ev = {
  ev_func : string;
  ev_block : int;
  ev_idx : int;
  ev_write : bool;
  ev_ty : Ty.t option; (* None for intrinsic (untyped) accesses *)
  ev_ctx : Lockset.ctx;
}

(* Memory effects of the intrinsics whose implementation goes through the
   machine's race-tracked plain access path ([plain_read]/[plain_write]).
   [I_atomic_add] is deliberately absent: the machine mutes the detector
   for its RMW, so the static model treats it as synchronised too. *)
let intrin_effects (op : I.intrin) : (int * bool) list =
  match op with
  | I.I_memcpy | I.I_cpi_memcpy | I.I_strcpy -> [ (0, true); (1, false) ]
  | I.I_memset | I.I_cpi_memset | I.I_read_input | I.I_setjmp -> [ (0, true) ]
  | I.I_strlen | I.I_longjmp -> [ (0, false) ]
  | I.I_strcmp -> [ (0, false); (1, false) ]
  | _ -> []

(* Registers locally derived from each alloca, then the allocas whose
   address escapes the frame (stored as a value, passed to a call or to
   thread_spawn): only those can be touched by another thread, so only
   those participate in same-function race pairs — two instances of a
   spawned worker each own a distinct copy of an unescaped local. *)
let published_allocas (fn : Prog.func) : (int, unit) Hashtbl.t =
  let derived : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let roots_of r = Option.value ~default:[] (Hashtbl.find_opt derived r) in
  let roots_of_op = function I.Reg r -> roots_of r | _ -> [] in
  for _pass = 1 to 2 do
    Prog.iter_instrs fn (fun i ->
        match i with
        | I.Alloca { dst; _ } -> Hashtbl.replace derived dst [ dst ]
        | I.Cast { dst; v; _ } -> Hashtbl.replace derived dst (roots_of_op v)
        | I.Gep { dst; base; _ } -> Hashtbl.replace derived dst (roots_of_op base)
        | I.Bin { dst; l; r; _ } ->
          Hashtbl.replace derived dst (roots_of_op l @ roots_of_op r)
        | _ -> ())
  done;
  let pub = Hashtbl.create 8 in
  let publish o = List.iter (fun r -> Hashtbl.replace pub r ()) (roots_of_op o) in
  Prog.iter_instrs fn (fun i ->
      match i with
      | I.Store { v; _ } -> publish v
      | I.Call { args; _ } -> List.iter publish args
      | I.Intrin { op = I.I_thread_spawn; args; _ } -> List.iter publish args
      | _ -> ());
  pub

let races (prog : Prog.t) : race list =
  let pt = Pointsto.analyze prog in
  let ls = Lockset.analyze prog pt in
  if not (Lockset.has_spawn ls) then []
  else begin
    let sctx = Sensitivity.create prog.Prog.tenv in
    let published = Hashtbl.create 8 in
    Prog.iter_funcs prog (fun fn ->
        Hashtbl.replace published fn.Prog.fname (published_allocas fn));
    let events : (Pointsto.obj, ev list ref) Hashtbl.t = Hashtbl.create 32 in
    let obj_order = ref [] in
    let record fname bid idx ~write ~ty addr =
      match Lockset.ctx_at ls ~fname ~block:bid ~idx with
      | None -> ()
      | Some ctx ->
        let objs =
          match Pointsto.points_to pt ~fname addr with
          | [] -> [ Pointsto.O_unknown ]
          | objs -> List.filter (fun o -> o <> Pointsto.O_code) objs
        in
        List.iter
          (fun obj ->
            let keep =
              match obj with
              | Pointsto.O_alloca (owner, r) when owner = fname ->
                (* the owner touching its own (per-instance) local is
                   private unless the address escaped the frame *)
                (match Hashtbl.find_opt published fname with
                 | Some pub -> Hashtbl.mem pub r
                 | None -> true)
              | _ -> true
            in
            if keep then begin
              if not (Hashtbl.mem events obj) then begin
                Hashtbl.replace events obj (ref []);
                obj_order := obj :: !obj_order
              end;
              let l = Hashtbl.find events obj in
              l :=
                { ev_func = fname; ev_block = bid; ev_idx = idx;
                  ev_write = write; ev_ty = ty; ev_ctx = ctx }
                :: !l
            end)
          objs
    in
    Prog.iter_funcs prog (fun fn ->
        let fname = fn.Prog.fname in
        Array.iter
          (fun (b : Prog.block) ->
            Array.iteri
              (fun idx ins ->
                match ins with
                | I.Load { ty; addr; _ } ->
                  record fname b.Prog.bid idx ~write:false ~ty:(Some ty) addr
                | I.Store { ty; addr; _ } ->
                  record fname b.Prog.bid idx ~write:true ~ty:(Some ty) addr
                | I.Intrin { op; args; _ } ->
                  List.iter
                    (fun (argi, write) ->
                      match List.nth_opt args argi with
                      | Some a ->
                        record fname b.Prog.bid idx ~write ~ty:None a
                      | None -> ())
                    (intrin_effects op)
                | _ -> ())
              b.Prog.instrs)
          fn.Prog.blocks);
    let disjoint_locks a b =
      not
        (List.exists
           (fun l -> List.mem l b.Lockset.cx_locks)
           a.Lockset.cx_locks)
    in
    let races = ref [] in
    List.iter
      (fun obj ->
        let evs = Array.of_list (List.rev !(Hashtbl.find events obj)) in
        let n = Array.length evs in
        let part = Array.make n false in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let a = evs.(i) and b = evs.(j) in
            if
              (a.ev_write || b.ev_write)
              && Lockset.may_overlap ls a.ev_ctx b.ev_ctx
              && disjoint_locks a.ev_ctx b.ev_ctx
            then begin
              part.(i) <- true;
              part.(j) <- true
            end
          done
        done;
        let sites = ref [] and sensitive = ref false in
        Array.iteri
          (fun i e ->
            if part.(i) then begin
              (match e.ev_ty with
               | Some ty when Sensitivity.is_sensitive sctx ty ->
                 sensitive := true
               | _ -> ());
              sites :=
                { st_func = e.ev_func; st_block = e.ev_block;
                  st_idx = e.ev_idx; st_write = e.ev_write;
                  st_locked = e.ev_ctx.Lockset.cx_locks <> [] }
                :: !sites
            end)
          evs;
        if !sites <> [] then
          races :=
            { rc_obj = Pointsto.obj_to_string obj;
              rc_storage = (if !sensitive then "safe-region" else "shared-data");
              rc_sites = List.rev !sites }
            :: !races)
      (List.rev !obj_order);
    List.sort (fun a b -> compare (a.rc_obj, a.rc_storage) (b.rc_obj, b.rc_storage))
      !races
  end

(* ---------- safe-region separation ---------- *)

type unproven = {
  up_func : string;
  up_block : int;
  up_idx : int;
  up_reason : string;
}

type separation = {
  sp_plain : int;
  sp_certs : V.separation_cert list;
  sp_unproven : unproven list;
  sp_model : V.separation_model;
  sp_replay : (unit, string) result;
}

let is_safe_where (w : I.where) =
  match w with
  | I.SafeFull | I.SafeValue | I.SafeDebug | I.SafeData -> true
  (* Crypt accesses hit the regular region (ciphertext in place), so they
     participate in regular-region races like any plain access. *)
  | I.Regular | I.RegularMeta | I.Crypt -> false

let separation (prog : Prog.t) : separation =
  let pt = Pointsto.analyze prog in
  (* The protected set: every Andersen object a safe-routed access may
     touch, plus the replay-vocabulary model of the same facts. *)
  let safe_objs : (Pointsto.obj, unit) Hashtbl.t = Hashtbl.create 16 in
  let safe_unmodelled = ref false in
  let sm_safe = ref [] and sm_opaque = ref [] in
  Prog.iter_funcs prog (fun fn ->
      let fname = fn.Prog.fname in
      let walk = V.local_roots fn in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx ins ->
              let addr =
                match ins with
                | I.Load { addr; where; _ } | I.Store { addr; where; _ }
                  when is_safe_where where -> Some addr
                | _ -> None
              in
              match addr with
              | None -> ()
              | Some addr ->
                let objs = Pointsto.points_to pt ~fname addr in
                if objs = [] || List.mem Pointsto.O_unknown objs then
                  safe_unmodelled := true;
                List.iter (fun o -> Hashtbl.replace safe_objs o ()) objs;
                (match walk addr with
                 | Some roots ->
                   List.iter
                     (fun r ->
                       sm_safe :=
                         (match r with
                          | V.Sr_global _ -> ("", r)
                          | _ -> (fname, r))
                         :: !sm_safe)
                     roots
                 | None -> sm_opaque := (fname, b.Prog.bid, idx) :: !sm_opaque))
            b.Prog.instrs)
        fn.Prog.blocks);
  let model =
    { V.sm_safe = List.sort_uniq compare !sm_safe;
      V.sm_opaque = List.sort_uniq compare !sm_opaque }
  in
  (* Judge every plain store. *)
  let certs = ref [] and unproven = ref [] and nplain = ref 0 in
  Prog.iter_funcs prog (fun fn ->
      let fname = fn.Prog.fname in
      let walk = V.local_roots fn in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx ins ->
              match ins with
              | I.Store { addr; where = I.Regular; _ } ->
                incr nplain;
                let fail reason =
                  unproven :=
                    { up_func = fname; up_block = b.Prog.bid; up_idx = idx;
                      up_reason = reason }
                    :: !unproven
                in
                let objs = Pointsto.points_to pt ~fname addr in
                if !safe_unmodelled then
                  fail "a safe-routed access is unmodelled by points-to"
                else if objs = [] then
                  fail "store address is unmodelled by points-to"
                else if List.mem Pointsto.O_unknown objs then
                  fail "store address may reach unmodelled memory"
                else if List.exists (Hashtbl.mem safe_objs) objs then
                  fail
                    "store may alias safe-region storage (authoritative copy \
                     shielded by the safe store)"
                else begin
                  match walk addr with
                  | Some roots ->
                    certs :=
                      { V.sc_func = fname; V.sc_block = b.Prog.bid;
                        V.sc_idx = idx;
                        V.sc_roots = List.sort_uniq compare roots }
                      :: !certs
                  | None -> fail "store address has opaque local provenance"
                end
              | _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks);
  let certs = List.rev !certs in
  { sp_plain = !nplain;
    sp_certs = certs;
    sp_unproven = List.rev !unproven;
    sp_model = model;
    sp_replay = V.check_separation prog ~model certs }
