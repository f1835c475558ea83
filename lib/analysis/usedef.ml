(** Per-function use-def maps over the IR, read by the char* heuristic,
    the unsafe-cast data-flow augmentation, the points-to refinement and
    the safe stack analysis. A build makes one per function and hands it
    to all of them. *)

module I = Levee_ir.Instr
module Prog = Levee_ir.Prog

(** Position of an instruction within its function. *)
type pos = { block : int; idx : int }

type use =
  | Load_addr of pos * Levee_ir.Ty.t        (* reg used as load address *)
  | Store_addr of pos * Levee_ir.Ty.t
  | Store_val of pos * Levee_ir.Ty.t        (* reg stored as a value *)
  | Gep_base of pos * int                   (* dst register of the gep *)
  | Gep_index of pos
  | Bin_op of pos * int                     (* dst register *)
  | Cmp_op of pos
  | Cast_src of pos * int * Levee_ir.Ty.t   (* dst register, target type *)
  | Call_arg of pos
  | Intrin_arg of pos * I.intrin * int      (* which argument position *)
  | Callee of pos
  | Ret_val
  | Branch_cond

(* Positions pack as [block * stride + idx], where [stride] exceeds every
   block's length: a block's terminator sits at [idx] = its length. A use
   is its position and which operand of the instruction it is; the uses
   of register [r] are entries [use_start.(r)] to [use_start.(r + 1) - 1]
   of [use_at] and [use_opd], in program order. *)
type t = {
  fn : Prog.func;
  stride : int;
  def_at : int array;      (* by register: its last def, or -1 *)
  use_start : int array;   (* by register, plus one *)
  use_at : int array;
  use_opd : int array;
}

(* Every destination ([def r at]) and register operand ([use r at opd])
   of [fn]. Operand numbers tell a store's value (0) from its address
   (1), a gep's base (0) from its indices (1), a callee (0) from the
   arguments (1) and an intrinsic's arguments apart. *)
let walk (fn : Prog.func) stride ~def ~use =
  let opd (o : I.operand) at k =
    match o with
    | I.Reg r -> use r at k
    | I.Imm _ | I.Glob _ | I.Fun _ | I.Nullp -> ()
  in
  let rec opds at k step = function
    | [] -> ()
    | o :: tl -> opd o at k; opds at (k + step) step tl
  in
  let def_opt at = function Some d -> def d at | None -> () in
  Array.iter
    (fun (b : Prog.block) ->
      let base = b.Prog.bid * stride and instrs = b.Prog.instrs in
      for idx = 0 to Array.length instrs - 1 do
        let at = base + idx in
        match instrs.(idx) with
        | I.Alloca { dst; _ } -> def dst at
        | I.Bin { dst; l; r; _ } | I.Cmp { dst; l; r; _ } ->
          opd l at 0; opd r at 1; def dst at
        | I.Load { dst; addr; _ } -> opd addr at 0; def dst at
        | I.Store { v; addr; _ } -> opd v at 0; opd addr at 1
        | I.Gep { dst; base; path; _ } ->
          opd base at 0;
          List.iter (function I.Index (_, o) -> opd o at 1 | I.Field _ -> ()) path;
          def dst at
        | I.Cast { dst; v; _ } -> opd v at 0; def dst at
        | I.Call { dst; callee; args; _ } ->
          (match callee with I.Indirect o -> opd o at 0 | I.Direct _ -> ());
          opds at 1 0 args;
          def_opt at dst
        | I.Intrin { dst; args; _ } -> opds at 0 1 args; def_opt at dst
      done;
      match b.Prog.term with
      | I.Ret (Some o) | I.Br (o, _, _) | I.Switch (o, _, _) ->
        opd o (base + Array.length instrs) 0
      | I.Ret None | I.Jmp _ | I.Unreachable -> ())
    fn.Prog.blocks

let build (fn : Prog.func) : t =
  let n = fn.Prog.nregs in
  let ok r = r >= 0 && r < n in
  let stride =
    Array.fold_left
      (fun m (b : Prog.block) -> max m (Array.length b.Prog.instrs + 1))
      1 fn.Prog.blocks
  in
  let def_at = Array.make n (-1) and use_start = Array.make (n + 1) 0 in
  walk fn stride
    ~def:(fun r at -> if ok r then def_at.(r) <- at)
    ~use:(fun r _ _ -> if ok r then use_start.(r + 1) <- use_start.(r + 1) + 1);
  for r = 1 to n do
    use_start.(r) <- use_start.(r) + use_start.(r - 1)
  done;
  let use_at = Array.make use_start.(n) 0 and use_opd = Array.make use_start.(n) 0 in
  let next = Array.sub use_start 0 n in
  walk fn stride ~def:(fun _ _ -> ()) ~use:(fun r at k ->
      if ok r then begin
        use_at.(next.(r)) <- at;
        use_opd.(next.(r)) <- k;
        next.(r) <- next.(r) + 1
      end);
  { fn; stride; def_at; use_start; use_at; use_opd }

let of_prog (prog : Prog.t) =
  let t = Hashtbl.create 64 in
  Prog.iter_funcs prog (fun fn -> Hashtbl.replace t fn.Prog.fname (build fn));
  Hashtbl.find t

let func t = t.fn
let in_range t r = r >= 0 && r < Array.length t.def_at

let def t r =
  if not (in_range t r) || t.def_at.(r) < 0 then None
  else
    let block = t.def_at.(r) / t.stride and idx = t.def_at.(r) mod t.stride in
    Some ({ block; idx }, t.fn.Prog.blocks.(block).Prog.instrs.(idx))

let use_of t at k =
  let block = at / t.stride and idx = at mod t.stride in
  let b = t.fn.Prog.blocks.(block) and pos = { block; idx } in
  if idx = Array.length b.Prog.instrs then
    match b.Prog.term with I.Ret _ -> Ret_val | _ -> Branch_cond
  else
    match b.Prog.instrs.(idx) with
    | I.Load { ty; _ } -> Load_addr (pos, ty)
    | I.Store { ty; _ } -> if k = 0 then Store_val (pos, ty) else Store_addr (pos, ty)
    | I.Gep { dst; _ } -> if k = 0 then Gep_base (pos, dst) else Gep_index pos
    | I.Bin { dst; _ } -> Bin_op (pos, dst)
    | I.Cmp _ -> Cmp_op pos
    | I.Cast { dst; ty; _ } -> Cast_src (pos, dst, ty)
    | I.Call _ -> if k = 0 then Callee pos else Call_arg pos
    | I.Intrin { op; _ } -> Intrin_arg (pos, op, k)
    | I.Alloca _ -> invalid_arg "Usedef: an alloca uses no register"

let uses_of t r =
  let acc = ref [] in
  if in_range t r then
    for k = t.use_start.(r) to t.use_start.(r + 1) - 1 do
      acc := use_of t t.use_at.(k) t.use_opd.(k) :: !acc
    done;
  !acc

(* ---------- dense position sets ---------- *)

type marks = bool array array

let marks (fn : Prog.func) : marks =
  Array.map (fun (b : Prog.block) -> Array.make (Array.length b.Prog.instrs) false)
    fn.Prog.blocks

let marked (m : marks) (blk, idx) =
  blk >= 0 && blk < Array.length m && idx >= 0 && idx < Array.length m.(blk)
  && m.(blk).(idx)

let mark (m : marks) (blk, idx) = m.(blk).(idx) <- true

let positions (m : marks) =
  let acc = ref [] in
  for blk = Array.length m - 1 downto 0 do
    for idx = Array.length m.(blk) - 1 downto 0 do
      if m.(blk).(idx) then acc := (blk, idx) :: !acc
    done
  done;
  !acc

(** Trace the local origin of an operand through copies, casts, geps and
    pointer arithmetic. *)
type origin =
  | From_alloca of Levee_ir.Ty.t
  | From_global of string
  | From_malloc
  | From_load of pos
  | From_call
  | From_fun of string
  | From_const
  | From_param of int       (* the i-th parameter of the enclosing function *)
  | Unknown

(** The storage site an address operand roots at, if locally traceable:
    the alloca register or global that owns the memory. Used to make
    per-pointer (rather than per-instruction) decisions, e.g. the char*
    heuristic must demote all accesses of a pointer or none. *)
type site = Site_alloca of int | Site_global of string | Site_unknown

let rec root_site ?(depth = 16) t (o : I.operand) : site =
  if depth = 0 then Site_unknown
  else
    match o with
    | I.Glob g -> Site_global g
    | I.Imm _ | I.Nullp | I.Fun _ -> Site_unknown
    | I.Reg r ->
      (match def t r with
       | None -> Site_unknown
       | Some (_, i) ->
         (match i with
          | I.Alloca _ -> Site_alloca r
          | I.Cast { v; _ } -> root_site ~depth:(depth - 1) t v
          | I.Gep { base; _ } -> root_site ~depth:(depth - 1) t base
          | I.Bin { op = I.Add | I.Sub; l; _ } -> root_site ~depth:(depth - 1) t l
          | I.Bin _ | I.Cmp _ | I.Load _ | I.Store _ | I.Call _ | I.Intrin _ ->
            Site_unknown))

let rec origin ?(depth = 16) t (o : I.operand) : origin =
  if depth = 0 then Unknown
  else
    match o with
    | I.Imm _ | I.Nullp -> From_const
    | I.Glob g -> From_global g
    | I.Fun f -> From_fun f
    | I.Reg r ->
      (match def t r with
       | None ->
         if r < List.length t.fn.Prog.params then From_param r else Unknown
       | Some (pos, i) ->
         (match i with
          | I.Alloca { ty; _ } -> From_alloca ty
          | I.Cast { v; _ } -> origin ~depth:(depth - 1) t v
          | I.Gep { base; _ } -> origin ~depth:(depth - 1) t base
          | I.Bin { op = I.Add | I.Sub; l; _ } -> origin ~depth:(depth - 1) t l
          | I.Bin _ | I.Cmp _ -> From_const
          | I.Load _ -> From_load pos
          | I.Intrin { op = I.I_malloc; _ } -> From_malloc
          | I.Intrin _ | I.Call _ -> From_call
          | I.Store _ -> Unknown))
