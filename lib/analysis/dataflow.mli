(** Per-function CFG and generic forward worklist solver: the substrate
    of the flow-sensitive analyses (redundant-check elision). *)

type cfg = {
  nblocks : int;
  succs : int list array;
  preds : int list array;
  rpo : int array;           (** reverse postorder of reachable blocks *)
  rpo_index : int array;     (** block id -> position in [rpo], -1 if dead *)
}

(** Successor block ids of a terminator, deduplicated. *)
val successors : Levee_ir.Instr.term -> int list

val build : Levee_ir.Prog.func -> cfg

(** Forward dataflow returning the fixpoint block-entry states. [entry]
    seeds block 0, [bottom] is the unvisited state (identity of [join]);
    [transfer] must be pure and monotone. *)
val solve :
  cfg ->
  entry:'a ->
  bottom:'a ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  transfer:(int -> 'a -> 'a) ->
  'a array
