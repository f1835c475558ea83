(** IR types.

    The IR is word-addressed: every atomic value (integer, character,
    pointer, code pointer) occupies exactly one 64-bit word. This mirrors
    how the paper's analysis reasons about memory (objects, sub-objects and
    pointer-sized slots) while keeping the machine simulator simple: bounds
    and offsets are measured in words. *)

type t =
  | Void
  | Int                      (* 64-bit integer word *)
  | Char                     (* character; distinct from Int so that
                                [Ptr Char] can be classified as a universal
                                pointer, as in the paper's char* handling *)
  | Ptr of t                 (* pointer to [t]; [Ptr Void] is void* *)
  | Fn of t list * t         (* function type: arguments, return *)
  | Struct of string         (* named struct; layout lives in [env] *)
  | Arr of t * int           (* fixed-size array *)

(** Struct layout environment: struct name -> ordered fields, plus the
    structs the programmer marked [sensitive]. *)
type env = {
  structs : (string, (string * t) list) Hashtbl.t;
  sensitive : (string, unit) Hashtbl.t;
}

let create_env () =
  { structs = Hashtbl.create 16; sensitive = Hashtbl.create 4 }

let define_struct env name fields =
  if Hashtbl.mem env.structs name then
    invalid_arg ("Ty.define_struct: duplicate struct " ^ name);
  Hashtbl.replace env.structs name fields

let mark_sensitive env name = Hashtbl.replace env.sensitive name ()
let marked_sensitive env name = Hashtbl.mem env.sensitive name

let struct_fields env name =
  match Hashtbl.find_opt env.structs name with
  | Some fs -> fs
  | None -> invalid_arg ("Ty.struct_fields: unknown struct " ^ name)

(** [size_of env t] is the size of [t] in words. *)
let rec size_of env = function
  | Void -> 0
  | Int | Char | Ptr _ | Fn _ -> 1
  | Arr (t, n) -> n * size_of env t
  | Struct s ->
    List.fold_left (fun acc (_, ft) -> acc + size_of env ft) 0 (struct_fields env s)

(** [field_offset env sname fname] is the word offset of field [fname]
    within struct [sname], together with the field type. *)
let field_offset env sname fname =
  let rec go off = function
    | [] -> invalid_arg (Printf.sprintf "Ty.field_offset: %s has no field %s" sname fname)
    | (n, ft) :: rest ->
      if n = fname then (off, ft) else go (off + size_of env ft) rest
  in
  go 0 (struct_fields env sname)

let is_pointer = function Ptr _ -> true | _ -> false

(** A code pointer: pointer to function type. *)
let is_code_pointer = function Ptr (Fn _) -> true | _ -> false

(** Universal pointers may point to values of any type at runtime
    (void pointers and char pointers), per the paper's Section 3.2.1. *)
let is_universal_pointer = function
  | Ptr Void | Ptr Char -> true
  | _ -> false

let rec equal a b =
  match a, b with
  | Void, Void | Int, Int | Char, Char -> true
  | Ptr a, Ptr b -> equal a b
  | Arr (a, n), Arr (b, m) -> n = m && equal a b
  | Struct a, Struct b -> String.equal a b
  | Fn (aa, ar), Fn (ba, br) ->
    equal ar br
    && List.length aa = List.length ba
    && List.for_all2 equal aa ba
  | (Void | Int | Char | Ptr _ | Arr _ | Struct _ | Fn _), _ -> false

let rec to_string = function
  | Void -> "void"
  | Int -> "int"
  | Char -> "char"
  | Ptr t -> to_string t ^ "*"
  | Fn (args, ret) ->
    Printf.sprintf "%s(%s)" (to_string ret)
      (String.concat ", " (List.map to_string args))
  | Struct s -> "struct " ^ s
  | Arr (t, n) -> Printf.sprintf "%s[%d]" (to_string t) n
