(* The one JSON printer and parser every schema shares (see jsonenc.mli). *)

type json =
  | Jstr of string
  | Jint of int
  | Jfloat of float
  | Jbool of bool
  | Jnull
  | Jlist of json list
  | Jobj of (string * json) list

(* One canonical float dialect for every schema: fixed-point, one decimal,
   independent of any locale (OCaml's Printf never consults the locale,
   unlike C's). Non-finite values cannot be represented in JSON and no
   schema legitimately produces them, so they collapse to 0.0 rather than
   emitting a document other parsers reject; negative zero is normalized
   so equal values always serialize to equal bytes. *)
let float_str v =
  let v = if v <> v || v = infinity || v = neg_infinity then 0.0 else v in
  let v = if v = 0.0 then 0.0 else v in
  Printf.sprintf "%.1f" v

(* ---------- printer ---------- *)

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let seq b ~op ~sep ~cl f xs =
  Buffer.add_string b op;
  List.iteri (fun i x -> if i > 0 then Buffer.add_string b sep; f x) xs;
  Buffer.add_string b cl

(* [lines] selects the document layout: an array that is an object
   member's value prints one element per line. Everything else — nested
   arrays, objects below the root, scalars — prints inline. *)
let rec write b ~lines = function
  | Jstr s -> add_quoted b s
  | Jint i -> Buffer.add_string b (string_of_int i)
  | Jfloat f -> Buffer.add_string b (float_str f)
  | Jbool v -> Buffer.add_string b (string_of_bool v)
  | Jnull -> Buffer.add_string b "null"
  | Jlist l -> seq b ~op:"[" ~sep:"," ~cl:"]" (write b ~lines) l
  | Jobj kvs -> seq b ~op:"{" ~sep:"," ~cl:"}" (member b ~lines) kvs

and member b ~lines (k, v) =
  add_quoted b k;
  Buffer.add_char b ':';
  match v with
  | Jlist l when lines ->
    seq b ~op:"[\n" ~sep:",\n" ~cl:"\n]" (write b ~lines) l
  | v -> write b ~lines v

let to_document v =
  let b = Buffer.create 4096 in
  (match v with
   | Jobj kvs -> seq b ~op:"{\n" ~sep:",\n" ~cl:"\n}" (member b ~lines:true) kvs
   | v -> write b ~lines:true v);
  Buffer.add_char b '\n';
  Buffer.contents b

let to_line v =
  let b = Buffer.create 256 in
  write b ~lines:false v;
  Buffer.contents b

(* ---------- parser ---------- *)

(* Minimal recursive-descent reader covering the subset the repo's
   emitters produce (plus arbitrary nesting, so a future schema bump
   still parses). Shared by the journal parser and the run-store. *)

exception Bad of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "expected value"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char b '"'; advance ()
         | Some '\\' -> Buffer.add_char b '\\'; advance ()
         | Some 'n' -> Buffer.add_char b '\n'; advance ()
         | Some 't' -> Buffer.add_char b '\t'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "bad \\u escape";
           let code =
             match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
             | Some c -> c
             | None -> fail "bad \\u escape"
           in
           Buffer.add_char b (Char.chr (code land 0xff));
           pos := !pos + 4
         | _ -> fail "bad escape");
        loop ()
      | Some c -> Buffer.add_char b c; advance (); loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    let is_float = ref false in
    (match peek () with Some '-' -> advance () | _ -> ());
    let rec digits () =
      match peek () with
      | Some ('0' .. '9') -> advance (); digits ()
      | _ -> ()
    in
    digits ();
    if !pos = start || (!pos = start + 1 && s.[start] = '-') then
      fail "expected number";
    (match peek () with
     | Some '.' -> is_float := true; advance (); digits ()
     | _ -> ());
    (match peek () with
     | Some ('e' | 'E') ->
       is_float := true;
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Jfloat f
      | None -> fail "bad float"
    else
      match int_of_string_opt text with
      | Some i -> Jint i
      | None -> fail "bad integer"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Jobj [])
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Jobj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Jlist [])
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elems (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Jlist (elems [])
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function
  | Jobj kvs ->
    (match List.assoc_opt name kvs with
     | Some v -> v
     | None -> raise (Bad ("missing field " ^ name)))
  | _ -> raise (Bad "expected object")

let as_str = function Jstr s -> s | _ -> raise (Bad "expected string")
let as_int = function Jint i -> i | _ -> raise (Bad "expected int")
let as_list = function Jlist l -> l | _ -> raise (Bad "expected array")
