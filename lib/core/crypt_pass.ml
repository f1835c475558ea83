(** The cpi-crypt instrumentation pass: in-place pointer encryption.

    LIPPEN / CryptSan / PAC-style protection keeps sensitive pointers in
    ordinary memory as ciphertext under a per-run key instead of moving
    them to a safe region. The pass routes the same sensitive-access set
    as CPI — the Fig. 7 type rule, minus the char* string-heuristic
    demotions and the points-to demotions, plus the Castflow-forced loads
    and annotated-struct paths — through the [Crypt] layout; the machine
    folds a keyed encrypt/decrypt into each such access.

    Differences from [Cpi_pass], all consequences of having no safe
    region:

    - No dereference checks are inserted: the scheme carries no bounds or
      temporal metadata — integrity comes from the cipher alone.
    - Plain [memcpy]/[memset] are left untouched: a value cipher (keyed
      on the run, not the address) moves ciphertext correctly under plain
      word copies, so the safe-store-aware variants are unnecessary and
      would charge phantom safe-store costs.
    - Proven-safe stack slots are NOT skipped: there is no safe stack to
      host them, so local sensitive slots must hold ciphertext or an
      in-frame overwrite would hijack them.
    - The pass reports which global initializer cells must be
      re-encrypted after the loader's plaintext image write (sensitive
      cells of globals with non-zero pointer initializers); the
      interpreter applies the mask at [create] time once the per-run key
      exists. Globals with such initializers are pinned as never-demoted
      so ciphertext routing stays consistent with the startup mask.

    Shares the demotion machinery with CPI ([Strheur] +
    [Pointsto.refine_cpi]); demotion is consistent per object, which is
    exactly the property a tagless in-place cipher needs — every access
    that can reach a ciphertext cell must itself be crypt-routed. *)

module I = Levee_ir.Instr
module Ty = Levee_ir.Ty
module Prog = Levee_ir.Prog
module An = Levee_analysis

(* Flattened per-word cell types of a global's layout (the IR is
   word-addressed: every scalar is exactly one word). *)
let word_types tenv (ty : Ty.t) : Ty.t array =
  let out = ref [] in
  let rec go t =
    match t with
    | Ty.Struct s -> List.iter (fun (_, ft) -> go ft) (Ty.struct_fields tenv s)
    | Ty.Arr (elt, n) ->
      for _ = 1 to n do
        go elt
      done
    | Ty.Void | Ty.Int | Ty.Char | Ty.Ptr _ | Ty.Fn _ -> out := t :: !out
  in
  go ty;
  Array.of_list (List.rev !out)

(* Globals whose initializers put a non-zero value into a sensitive cell:
   the loader writes those plaintext, so the machine must re-encrypt them
   before the first crypt-routed load — and the pass must never demote
   accesses that may reach them. Zero-valued sensitive cells need nothing
   (zero is a fixed point of the cipher). *)
let crypt_globals ctx (prog : Prog.t) : (string * bool array) list =
  List.filter_map
    (fun (g : Prog.global) ->
      let mask =
        Array.map
          (fun t -> An.Sensitivity.is_sensitive ctx t)
          (word_types prog.Prog.tenv g.Prog.gty)
      in
      let hot = ref false in
      Array.iteri
        (fun i cell ->
          if i < Array.length mask && mask.(i) then
            match cell with
            | Prog.Cint 0 -> ()
            | Prog.Cint _ | Prog.Cfun _ | Prog.Cglob _ -> hot := true)
        g.Prog.init;
      if !hot then Some (g.Prog.gname, mask) else None)
    prog.Prog.globals

(** Mark sensitive accesses as [Crypt] and compute the global re-encryption
    masks. Returns [(demoted, crypt_cells)]: the number of accesses the
    points-to refinement demoted, and the per-global masks for
    [Config.crypt_cells]. *)
let run ?(refine = true) (prog : Prog.t) : int * (string * bool array) list =
  let ctx = An.Sensitivity.create prog.Prog.tenv in
  let demoted_map = An.Strheur.demoted prog in
  let infos : (string, Cpi_pass.fninfo) Hashtbl.t = Hashtbl.create 16 in
  Prog.iter_funcs prog (fun fn ->
      Hashtbl.replace infos fn.Prog.fname
        { Cpi_pass.fi_fn = fn;
          fi_ud = An.Usedef.build fn;
          fi_demoted = An.Strheur.demoted_positions_in demoted_map fn;
          fi_forced = An.Castflow.forced_load_positions ctx fn;
          fi_annot = An.Sensitivity.annotated_addr_regs ctx fn;
          (* no safe stack: nothing to skip *)
          fi_safe = Hashtbl.create 1 })
  ;
  let cells = crypt_globals ctx prog in
  let pinned = List.map fst cells in
  let refined_count =
    if not refine then 0
    else begin
      let pt = An.Pointsto.analyze prog in
      let keep fname pos =
        match Hashtbl.find_opt infos fname with
        | None -> true
        | Some fi ->
          Hashtbl.mem fi.Cpi_pass.fi_forced pos
          || (match Cpi_pass.access_addr fi pos with
              | None -> true
              | Some a ->
                Cpi_pass.reg_in fi.Cpi_pass.fi_annot a
                (* never demote an access that may reach a global whose
                   initializer cells are encrypted at startup *)
                || (pinned <> []
                    && List.exists
                         (function
                           | An.Pointsto.O_global g -> List.mem g pinned
                           | _ -> false)
                         (An.Pointsto.points_to pt ~fname a)))
      in
      let skip fname pos =
        match Hashtbl.find_opt infos fname with
        | None -> false
        | Some fi -> Hashtbl.mem fi.Cpi_pass.fi_demoted pos
      in
      let refined = An.Pointsto.refine_cpi pt ~ctx ~keep ~skip in
      Hashtbl.iter
        (fun (fname, blk, idx) () ->
          match Hashtbl.find_opt infos fname with
          | Some fi -> Hashtbl.replace fi.Cpi_pass.fi_demoted (blk, idx) ()
          | None -> ())
        refined;
      Hashtbl.length refined
    end
  in
  Prog.iter_funcs prog (fun fn ->
      let fi = Hashtbl.find infos fn.Prog.fname in
      let demoted = fi.Cpi_pass.fi_demoted in
      let forced = fi.Cpi_pass.fi_forced in
      let addr_annotated o = Cpi_pass.reg_in fi.Cpi_pass.fi_annot o in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              let here = (b.Prog.bid, idx) in
              match i with
              | I.Load ({ ty; addr; _ } as l) ->
                let dem = Hashtbl.mem demoted here in
                let sens =
                  (An.Sensitivity.is_sensitive ctx ty && not dem)
                  || Hashtbl.mem forced here
                in
                if sens || addr_annotated addr then l.where <- I.Crypt
              | I.Store ({ ty; addr; _ } as s) ->
                let dem = Hashtbl.mem demoted here in
                let sens = An.Sensitivity.is_sensitive ctx ty && not dem in
                if sens || addr_annotated addr then s.where <- I.Crypt
              | _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks);
  (refined_count, cells)
