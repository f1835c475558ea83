(** Executable operational semantics of Appendix A.

    The evaluator implements the CPI rules literally: a runtime environment
    E = (S, Mu, Ms) with a regular memory and a safe memory over the same
    addresses, safe values carrying bounds v(b,e), and the exact
    rule-by-rule behaviour for sensitive and regular types — including the
    void*-holding-a-regular-value fallback rules and the aborts on
    accessing sensitive values through regular lvalues.

    The [sensitive] criterion is a parameter: passing Fig. 7's criterion
    gives CPI; passing [fun _ -> true] makes every location safe, which is
    exactly SoftBound's semantics (the paper's observation that CPI with
    an all-sensitive classification degenerates to full memory safety).
    The tests exercise both instantiations and the correctness-proof
    invariants. *)

open Syntax

type value =
  | VSafe of int * int * int    (* v(b,e): value with bounds *)
  | VReg of int                 (* regular value *)

type outcome = Done | Abort of string | Out_of_memory

exception Stop of outcome

type env = {
  structs : senv;
  sensitive : pty -> bool;
  var_map : (string * (aty * int)) list;    (* S: var -> type, address *)
  mu : (int, int) Hashtbl.t;                (* regular memory *)
  ms : (int, (int * int * int) option) Hashtbl.t;
     (* safe memory: Some (v,b,e) = safe value; None = the "none" marker;
        absent = never written *)
  funcs : (string * cmd) list;
  fn_addr : (string * int) list;            (* code addresses of functions *)
  mutable brk : int;
  limit : int;
  (* proof-checking oracle: every allocated object's extent *)
  objects : (int, int * int) Hashtbl.t;
  mutable sensitive_derefs : int;           (* checked accesses performed *)
  mutable oob_accesses : int;               (* would-be unsafe accesses that
                                               slipped through (must be 0) *)
}

let sensitive_atomic env = function
  | TInt -> false
  | TPtr p -> env.sensitive p

(* Table 5 memory operations. *)
let readu env l = match Hashtbl.find_opt env.mu l with Some v -> v | None -> 0
let writeu env l v = Hashtbl.replace env.mu l v

let reads env l = match Hashtbl.find_opt env.ms l with Some e -> e | None -> None
let writes_val env l v b e = Hashtbl.replace env.ms l (Some (v, b, e))
let writes_none env l = Hashtbl.replace env.ms l None

let malloc env n =
  let n = max n 1 in
  let l = env.brk in
  env.brk <- env.brk + n;
  if env.brk >= env.limit then raise (Stop Out_of_memory);
  Hashtbl.replace env.objects l (l, l + n);
  l

let size_of_aty _env (_ : aty) = 1

(* Record (for the proof oracle) that address [l] was accessed as part of
   the object [b,e); count out-of-object accesses that were NOT aborted. *)
let oracle_access env l b e =
  env.sensitive_derefs <- env.sensitive_derefs + 1;
  if l < b || l >= e then env.oob_accesses <- env.oob_accesses + 1

(* Atomic result type of a pointee, for dereferencing. *)
let pointee_atomic = function
  | PA a -> Some a
  | PFn | PVoid | PS _ -> None

(* ---------- lhs evaluation: (E, lhs) =>l location ---------- *)

(* Returns (address, type-of-object-at-address, location-is-safe). *)
let rec eval_lhs env (l : lhs) : int * aty * bool =
  match l with
  | Var x ->
    (match List.assoc_opt x env.var_map with
     | Some (ty, addr) -> (addr, ty, sensitive_atomic env ty)
     | None -> raise (Stop (Abort ("unbound variable " ^ x))))
  | Deref inner ->
    let addr, ty, loc_safe = eval_lhs env inner in
    (match ty with
     | TPtr p ->
       let result_ty =
         match pointee_atomic p with
         | Some a -> a
         | None -> raise (Stop (Abort "dereference of non-atomic pointee"))
       in
       deref env ~addr ~pointee:p ~loc_safe ~result_ty
     | TInt -> raise (Stop (Abort "dereference of int")))
  | Field (base, f) ->
    let addr, ty, _ = eval_lhs env base in
    (* only struct objects reached through pointers exist in this subset;
       a direct Field is resolved against the object's struct layout *)
    field_loc env addr ty f
  | Arrow (base, f) ->
    let addr, ty, loc_safe = eval_lhs env base in
    (match ty with
     | TPtr (PS s as p) ->
       (* load the struct pointer value, then address the field *)
       let obj_addr, _, _ =
         deref env ~addr ~pointee:p ~loc_safe ~result_ty:TInt
       in
       field_of_struct env s obj_addr f
     | _ -> raise (Stop (Abort "arrow through non-struct-pointer")))

(* Dereference: fetch the pointer value stored at [addr] and return the
   location it denotes, enforcing the safe/regular rules. *)
and deref env ~addr ~pointee ~loc_safe ~result_ty : int * aty * bool =
  let a_sens = env.sensitive pointee in
  if a_sens then begin
    if loc_safe then
      match reads env addr with
      | Some (l', b, e) ->
        (* sensitive a, safe location, safe value: bounds check *)
        if l' >= b && l' <= e - size_of_aty env result_ty then begin
          (* the access proceeds: the proof oracle verifies it really is
             within the based-on object *)
          oracle_access env l' b e;
          (l', result_ty, sensitive_atomic env result_ty)
        end
        else raise (Stop (Abort "bounds violation"))
      | None ->
        (* safe memory holds the none marker: the universal pointer holds a
           regular value; fall back to regular memory *)
        let l' = readu env addr in
        (l', result_ty, false)
    else
      (* sensitive type accessed through a regular lvalue: abort *)
      raise (Stop (Abort "sensitive dereference through regular lvalue"))
  end
  else begin
    let l' = readu env addr in
    (l', result_ty, false)
  end

and field_loc env addr ty f =
  match ty with
  | TPtr (PS s) -> field_of_struct env s addr f
  | _ -> raise (Stop (Abort "field access on non-struct"))

and field_of_struct env s obj_addr f =
  match List.assoc_opt s env.structs with
  | None -> raise (Stop (Abort ("unknown struct " ^ s)))
  | Some fields ->
    let rec go i = function
      | [] -> raise (Stop (Abort ("unknown field " ^ f)))
      | (name, fty) :: rest ->
        if name = f then (obj_addr + i, fty, sensitive_atomic env fty)
        else go (i + 1) rest
    in
    go 0 fields

(* ---------- rhs evaluation: (E, rhs) =>r value ---------- *)

let rec eval_rhs env (r : rhs) : value =
  match r with
  | Int i -> VReg i
  | AddrFn f ->
    (match List.assoc_opt f env.fn_addr with
     | Some l -> VSafe (l, l, l)       (* l(l,l), per the &f rule *)
     | None -> raise (Stop (Abort ("unknown function " ^ f))))
  | Malloc sz ->
    let n = match eval_rhs env sz with VSafe (v, _, _) | VReg v -> v in
    let l = malloc env n in
    VSafe (l, l, l + n)
  | AddrLhs lhs ->
    let addr, ty, _ = eval_lhs env lhs in
    VSafe (addr, addr, addr + size_of_aty env ty)
  | Add (a, b) ->
    let va = eval_rhs env a in
    let vb = eval_rhs env b in
    (match va, vb with
     | VSafe (v, lo, hi), (VReg w | VSafe (w, _, _)) -> VSafe (v + w, lo, hi)
     | VReg v, VSafe (w, lo, hi) -> VSafe (v + w, lo, hi)
     | VReg v, VReg w -> VReg (v + w))
  | Lhs lhs ->
    let addr, ty, loc_safe = eval_lhs env lhs in
    let a_sens = sensitive_atomic env ty in
    if a_sens then begin
      if loc_safe then
        match reads env addr with
        | Some (v, b, e) -> VSafe (v, b, e)
        | None -> VReg (readu env addr)
      else raise (Stop (Abort "sensitive load through regular lvalue"))
    end
    else VReg (readu env addr)
  | Cast (a', inner) ->
    let v = eval_rhs env inner in
    (match v, sensitive_atomic env a' with
     | VSafe _, true -> v                       (* safe -> sensitive: keep *)
     | VSafe (x, _, _), false -> VReg x         (* strip bounds *)
     | VReg x, _ -> VReg x)                     (* regular stays regular *)
  | Sizeof p -> VReg (size_of_pty env.structs p)

(* ---------- commands: (E, c) =>c result ---------- *)

let rec exec env ~depth (c : cmd) : unit =
  if depth < 0 then raise (Stop (Abort "call depth exceeded"));
  match c with
  | Skip -> ()
  | Seq (a, b) ->
    exec env ~depth a;
    exec env ~depth b
  | Assign (lhs, rhs) ->
    let v = eval_rhs env rhs in
    let addr, ty, loc_safe = eval_lhs env lhs in
    let a_sens = sensitive_atomic env ty in
    if a_sens then begin
      if loc_safe then
        match v with
        | VSafe (x, b, e) -> writes_val env addr x b e
        | VReg x ->
          (* regular value into a (universal) sensitive location *)
          writeu env addr x;
          writes_none env addr
      else raise (Stop (Abort "sensitive store through regular lvalue"))
    end
    else begin
      match v with
      | VSafe (x, _, _) | VReg x -> writeu env addr x
    end
  | CallFn f ->
    (match List.assoc_opt f env.funcs with
     | Some body -> exec env ~depth:(depth - 1) body
     | None -> raise (Stop (Abort ("unknown function " ^ f))))
  | CallPtr lhs ->
    (* indirect call: the loaded code pointer must be safe *)
    let v = eval_rhs env (Lhs lhs) in
    (match v with
     | VSafe (target, _, _) ->
       (match List.find_opt (fun (_, a) -> a = target) env.fn_addr with
        | Some (name, _) -> exec env ~depth:(depth - 1) (CallFn name)
        | None -> raise (Stop (Abort "code pointer does not decode")))
     | VReg _ -> raise (Stop (Abort "indirect call through regular value")))

(* ---------- top level ---------- *)

type run = {
  outcome : outcome;
  checked_derefs : int;
  oob_slipped : int;        (* sensitive accesses outside their object *)
}

(** Run [p] under the given sensitivity criterion (default: Fig. 7). *)
let run ?sensitive (p : program) : run =
  let sensitive =
    match sensitive with
    | Some f -> f
    | None -> fun pty -> sensitive_pty p.structs pty
  in
  let var_map =
    List.mapi (fun i (x, ty) -> (x, (ty, 1000 + i))) p.vars
  in
  let fn_addr = List.mapi (fun i (f, _) -> (f, 900_000 + i)) p.funcs in
  let env =
    { structs = p.structs; sensitive; var_map;
      mu = Hashtbl.create 64; ms = Hashtbl.create 64;
      funcs = p.funcs; fn_addr; brk = 10_000; limit = 60_000;
      objects = Hashtbl.create 16; sensitive_derefs = 0; oob_accesses = 0 }
  in
  let outcome =
    try
      exec env ~depth:64 p.body;
      Done
    with Stop o -> o
  in
  { outcome; checked_derefs = env.sensitive_derefs;
    oob_slipped = env.oob_accesses }
