(** Per-function control-flow graphs and a generic forward worklist
    solver.

    This is the substrate for the flow-sensitive analyses: the
    redundant-check elision pass solves a must-availability problem over
    it. CFGs in this IR are tiny (every function is lowered from a single
    MiniC body), so the implementation favours clarity over asymptotic
    heroics: the solver is a plain worklist over a reverse postorder. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog

type cfg = {
  nblocks : int;
  succs : int list array;
  preds : int list array;
  rpo : int array;           (** reverse postorder of reachable blocks *)
  rpo_index : int array;     (** block id -> position in [rpo], -1 if dead *)
}

let successors (t : I.term) =
  match t with
  | I.Ret _ | I.Unreachable -> []
  | I.Jmp b -> [ b ]
  | I.Br (_, b1, b2) -> if b1 = b2 then [ b1 ] else [ b1; b2 ]
  | I.Switch (_, cases, dflt) ->
    let seen = Hashtbl.create 8 in
    List.filter
      (fun b ->
        if Hashtbl.mem seen b then false else (Hashtbl.add seen b (); true))
      (List.map snd cases @ [ dflt ])

let build (fn : Prog.func) : cfg =
  let n = Array.length fn.Prog.blocks in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  Array.iter
    (fun (b : Prog.block) ->
      let ss = successors b.Prog.term in
      succs.(b.Prog.bid) <- ss;
      List.iter (fun s -> preds.(s) <- b.Prog.bid :: preds.(s)) ss)
    fn.Prog.blocks;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  (* Depth-first postorder from the entry block; unreachable blocks keep
     rpo_index -1 and are skipped by the solver. *)
  let visited = Array.make n false in
  let post = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs succs.(b);
      post := b :: !post
    end
  in
  if n > 0 then dfs 0;
  let rpo = Array.of_list !post in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  { nblocks = n; succs; preds; rpo; rpo_index }

(* ---------- generic forward solver ---------- *)

(** Forward dataflow over block-level transfer functions.

    [solve g ~entry ~bottom ~join ~equal ~transfer] returns the fixpoint
    array of block *entry* states. [entry] seeds block 0; every other
    reachable block starts at [bottom] (the identity of [join], i.e. the
    "unvisited" state — for a must-analysis this is the full set, for a
    may-analysis the empty set). [transfer b s] must be pure. Blocks are
    revisited in reverse postorder until convergence, which is guaranteed
    for monotone transfers over finite-height lattices. *)
let solve (g : cfg) ~(entry : 'a) ~(bottom : 'a) ~(join : 'a -> 'a -> 'a)
    ~(equal : 'a -> 'a -> bool) ~(transfer : int -> 'a -> 'a) : 'a array =
  let in_state = Array.make (max g.nblocks 1) bottom in
  if g.nblocks = 0 then [||]
  else begin
    in_state.(0) <- entry;
    let out_state = Array.make g.nblocks bottom in
    let out_valid = Array.make g.nblocks false in
    let changed = ref true in
    let iters = ref 0 in
    while !changed && !iters < 10_000 do
      changed := false;
      incr iters;
      Array.iter
        (fun b ->
          let inp =
            if b = 0 then entry
            else begin
              (* joins ignore predecessors not yet visited: their "out" is
                 the unvisited state, the identity of [join] *)
              let states =
                List.filter_map
                  (fun p -> if out_valid.(p) then Some out_state.(p) else None)
                  g.preds.(b)
              in
              match states with
              | [] -> bottom
              | s :: rest -> List.fold_left join s rest
            end
          in
          in_state.(b) <- inp;
          let out = transfer b inp in
          if (not out_valid.(b)) || not (equal out out_state.(b)) then begin
            out_state.(b) <- out;
            out_valid.(b) <- true;
            changed := true
          end)
        g.rpo
    done;
    in_state
  end
