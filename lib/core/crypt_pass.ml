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
      host them (the pipeline runs no safe-stack pass here, so the plan
      finds none), so local sensitive slots must hold ciphertext or an
      in-frame overwrite would hijack them.
    - The pass reports which global initializer cells must be
      re-encrypted after the loader's plaintext image write (sensitive
      cells of globals with non-zero pointer initializers); the
      interpreter applies the mask at [create] time once the per-run key
      exists. Globals with such initializers are pinned as never-demoted
      so ciphertext routing stays consistent with the startup mask.

    The sensitive set is CPI's, read from the same sensitive-access plan
    ([Levee_analysis.Plan]) with the pinned globals passed in; its
    demotion is consistent per object, which is exactly the property a
    tagless in-place cipher needs — every access that can reach a
    ciphertext cell must itself be crypt-routed. *)

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
    [Config.crypt_cells]. [usedef] hands out the build's use-def of each
    function. *)
let run ?(refine = true) ~points_to ~usedef (prog : Prog.t) :
    int * (string * bool array) list =
  let cells = crypt_globals (An.Sensitivity.create prog.Prog.tenv) prog in
  let plan =
    An.Plan.create ~refine ~pinned:(List.map fst cells) ~points_to ~usedef
      prog
  in
  let demoted = An.Plan.demoted_count plan in
  Prog.iter_funcs prog (fun fn ->
      let f = An.Plan.func plan fn.Prog.fname in
      Array.iter
        (fun (b : Prog.block) ->
          Array.iteri
            (fun idx (i : I.instr) ->
              let crypt () =
                An.Plan.access f (b.Prog.bid, idx) <> An.Plan.Plain
              in
              match i with
              | I.Load l when crypt () -> l.where <- I.Crypt
              | I.Store s when crypt () -> s.where <- I.Crypt
              | _ -> ())
            b.Prog.instrs)
        fn.Prog.blocks);
  (demoted, cells)
