(** Decode-once (prepared) program representation.

    The interpreter used to re-resolve every operand on every execution:
    [Glob]/[Fun] operands went through the loader's hashtables, allocas
    probed the frame layout's slot table, switches walked an assoc list and
    call sites re-derived their return address from the code-address map —
    per instruction executed. A prepared function resolves all of that
    once, on the function's first use (the loader caches it on the loaded
    image), into the types below:

    - operands are either registers or fully resolved constants carrying
      their value and (pre-built) metadata;
    - allocas carry their frame placement directly;
    - loads/stores carry the precomputed trap message and type attributes;
    - GEP index steps carry the element size instead of the type;
    - calls carry the callee's function index (so preparing a caller
      never prepares its callees) and the return address the call pushes;
    - switches carry a dense jump table or a hashed case map.

    The representation is parameterized over the metadata type ['m] so this
    library does not depend on the machine: the loader instantiates ['m]
    with its based-on metadata. Preparation happens after instrumentation
    (the passes mutate [Instr.instr] attributes in place); a prepared
    function is a snapshot and does not track later mutation of its
    source, which is why a program must not change once it is loaded.

    The prepared form is what the interpreter compiles: on a function's
    first entry each instruction and terminator becomes one closure,
    specialised on the operand kinds, operator, [where]/[checked] and
    constant addresses resolved here, and the closures are cached on the
    loaded image (see [Levee_machine.Interp]). *)

module I = Instr

type 'm operand =
  | Reg of int            (** virtual register *)
  | Const of int * 'm     (** resolved Imm/Nullp/Glob/Fun: value + metadata *)

type 'm gep_step =
  | Field of int * int           (** word offset, field size (bounds narrowing) *)
  | Index of int * 'm operand    (** element size in words, index operand *)

type 'm callee =
  | Direct of int         (** function index in the prepared program *)
  | Indirect of 'm operand

(** Compiled switch dispatch. [Dense] is used when the case values span a
    small range; [Sparse] hashes the cases. Both preserve the semantics of
    [List.assoc_opt] over the source case list (first binding wins). *)
type switch_table =
  | Dense of { base : int; targets : int array; default : int }
  | Sparse of { cases : (int, int) Hashtbl.t; default : int }

type 'm instr =
  | Alloca of { dst : int; on_safe : bool; offset : int; size : int }
  | Bin of { dst : int; op : I.binop; l : 'm operand; r : 'm operand }
  | Cmp of { dst : int; op : I.cmpop; l : 'm operand; r : 'm operand }
  | Load of { dst : int; what : string; universal : bool; addr : 'm operand;
              where : I.where; checked : bool }
  | Store of { what : string; universal : bool; v : 'm operand;
               addr : 'm operand; where : I.where; checked : bool }
  | Gep of { dst : int; base : 'm operand; path : 'm gep_step array }
  | Cast of { dst : int; v : 'm operand }
  | Call of { dst : int option; callee : 'm callee; args : 'm operand array;
              cfi_checked : bool;
              (* cfi-type: allowed target entry addresses (sorted) for this
                 indirect call; [None] = coarse any-entry check only. *)
              cfi_set : int array option;
              ret_addr : int }
  | Intrin of { dst : int option; op : I.intrin; args : 'm operand array }

type 'm term =
  | Ret of 'm operand option
  | Br of 'm operand * int * int
  | Jmp of int
  | Switch of 'm operand * switch_table
  | Unreachable

type 'm block = { instrs : 'm instr array; term : 'm term }

type 'm func = {
  findex : int;             (** position in the prepared program's array *)
  fname : string;
  nregs : int;
  nparams : int;
  blocks : 'm block array;
}

(* A dense table pays one slot per value in [min, max]; cap the waste at a
   small multiple of the case count so pathological sparse switches fall
   back to hashing. *)
let dense_limit ncases = (4 * ncases) + 8

(* Sentinel for "no case claimed this slot yet" while building the dense
   table; block ids are array indices, hence non-negative. *)
let unset = min_int

let switch_table (cases : (int * int) list) (default : int) : switch_table =
  match cases with
  | [] -> Dense { base = 0; targets = [||]; default }
  | (v0, _) :: _ ->
    let lo = List.fold_left (fun a (v, _) -> min a v) v0 cases in
    let hi = List.fold_left (fun a (v, _) -> max a v) v0 cases in
    let span = hi - lo + 1 in
    if span <= dense_limit (List.length cases) then begin
      let targets = Array.make span unset in
      List.iter
        (fun (v, b) -> if targets.(v - lo) = unset then targets.(v - lo) <- b)
        cases;
      Array.iteri (fun i t -> if t = unset then targets.(i) <- default) targets;
      Dense { base = lo; targets; default }
    end
    else begin
      let tbl = Hashtbl.create (2 * List.length cases) in
      List.iter (fun (v, b) -> if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v b) cases;
      Sparse { cases = tbl; default }
    end

let switch_target (t : switch_table) v =
  match t with
  | Dense { base; targets; default } ->
    let i = v - base in
    if i >= 0 && i < Array.length targets then targets.(i) else default
  | Sparse { cases; default } ->
    (match Hashtbl.find_opt cases v with Some b -> b | None -> default)
