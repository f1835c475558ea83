(* Seeded generator of pointer-rich MiniC programs (the gen-build
   workload).

   A program of [n] functions has three layers:
   - leaves over three signatures, int(int), int(int,int) and
     int(struct node * ), reached only through function-pointer tables
     and struct fields;
   - four helpers (heap-node constructor, array sum, list free, main);
   - bodies f_0 .. f_m, grouped into clusters of 3 to 8. A body calls
     only the next body of its own cluster, once or twice, so the call
     graph is acyclic and a full run executes every body.

   Bodies draw their statements from the pointer-rich constructs the
   passes and the loader care about: struct fields holding code pointers,
   fptr tables, heap nodes linked through [void *], char/void casts of
   address-taken arrays, local fptr variables and local structs of code
   pointers.

   Soundness rules, so every protection must reproduce the vanilla run:
   every local, array element and heap field is written before it is
   read; every index is masked into its array's bounds; no integer is
   cast to a pointer and no code pointer to a data pointer; freed nodes
   are never touched again; values stay masked to 16 bits, so no pointer
   value ever reaches the checksum or the output. *)

module Rng = Levee_support.Rng

let mask = "65535"

type sizes = { leaves : int; bodies : int }

(* [n] counts every function: leaves, bodies and the four helpers. *)
let split_sizes n =
  let n = max 24 n in
  let leaves = max 6 (n / 5) in
  { leaves; bodies = n - leaves - 4 }

let buf_add = Buffer.add_string

(* Leaf [k] of signature [s] ('a', 'b' or 'v'): a little arithmetic,
   distinct constants per leaf. *)
let leaf b rng s k =
  let c1 = Rng.range rng 3 97 and c2 = Rng.range rng 1 255 in
  match s with
  | 'a' ->
    buf_add b
      (Printf.sprintf "int la_%d(int x) { return ((x * %d) + %d) & %s; }\n" k
         c1 c2 mask)
  | 'b' ->
    buf_add b
      (Printf.sprintf
         "int lb_%d(int x, int y) { return ((x ^ (y * %d)) + %d) & %s; }\n" k
         c1 c2 mask)
  | _ ->
    buf_add b
      (Printf.sprintf
         "int lv_%d(struct node *p) { return ((p->key * %d) + p->vals[%d]) & \
          %s; }\n"
         k c1 (c2 land 3) mask)

let prelude = {|struct node;
struct ops { int (*fa)(int); int (*fb)(int, int); };
struct node { int key; int vals[4]; void *next; struct ops *ops;
              int (*visit)(struct node *); };
int g_arr[32];
|}

let helpers = {|
struct node *mk_node(int k, struct node *next, int w) {
  struct node *p = (struct node *) malloc(sizeof(struct node));
  int j = 0;
  p->key = k & 255;
  for (j = 0; j < 4; j = j + 1) { p->vals[j] = (k + j * 7) & 255; }
  p->next = (void *) next;
  p->ops = &ops_tab[w & 3];
  p->visit = tab_v[w & 3];
  return p;
}
int sum_arr(int *p, int n) {
  int s = 0;
  int j = 0;
  for (j = 0; j < n; j = j + 1) { s = s + p[j]; }
  return s & 65535;
}
void free_list(struct node *p) {
  struct node *q = 0;
  while (p != 0) {
    q = (struct node *) p->next;
    free((void *) p);
    p = q;
  }
}
|}

(* Statement kinds are dealt from a deck holding each of the ten once,
   reshuffled when empty, so programs of one size get the same mix of
   constructs, and about the same pass and loader work, whatever the
   seed. *)
let dealer rng =
  let deck = Array.init 10 Fun.id and pos = ref 10 in
  fun () ->
    if !pos = 10 then begin
      Rng.shuffle rng deck;
      pos := 0
    end;
    incr pos;
    deck.(!pos - 1)

(* One statement of a body, of kind [kind]; [next] is the cluster
   successor, if any. *)
let stmt b rng ~kind ~next =
  let c = Rng.range rng 1 251 in
  let k = Rng.int rng 4 in
  let line s = buf_add b "  "; buf_add b s; buf_add b "\n" in
  match kind with
  | 0 ->
    line
      (Printf.sprintf "acc = (acc + tab_a[(acc + %d) & 7](loc[%d])) & %s;" c k
         mask)
  | 1 ->
    line
      (Printf.sprintf "acc = (acc + tab_b[(x + %d) & 7](acc, loc[%d])) & %s;" c
         k mask)
  | 2 ->
    line (Printf.sprintf "n = mk_node(acc + %d, n, %d);" c (c + k));
    line
      (Printf.sprintf "acc = (acc + n->ops->fa(n->key) + n->visit(n)) & %s;"
         mask)
  | 3 ->
    line "vp = (void *) n;";
    line "m = (struct node *) vp;";
    line
      (Printf.sprintf
         "if (m != 0) { acc = (acc + m->ops->fb(m->vals[%d], %d)) & %s; }" k c
         mask)
  | 4 ->
    line "cp = (char *) loc;";
    line (Printf.sprintf "acc = (acc + cp[%d] + %d) & %s;" k c mask)
  | 5 ->
    line "vp = (void *) loc;";
    line "ip = (int *) vp;";
    line (Printf.sprintf "ip[%d] = (ip[%d] + acc) & 255;" k ((k + 1) land 3));
    line (Printf.sprintf "acc = (acc + sum_arr(loc, 4)) & %s;" mask)
  | 6 ->
    line (Printf.sprintf "g_arr[(acc + %d) & 31] = acc;" c);
    line (Printf.sprintf "acc = (acc + g_arr[%d]) & %s;" (c land 31) mask)
  | 7 ->
    line (Printf.sprintf "fp = tab_a[%d];" (c land 7));
    line (Printf.sprintf "for (j = 0; j < 3; j = j + 1) { acc = fp(acc + j); }")
  | 8 ->
    line (Printf.sprintf "lo.fa = tab_a[%d];" (c land 7));
    line (Printf.sprintf "lo.fb = tab_b[%d];" ((c + k) land 7));
    line (Printf.sprintf "acc = (acc + lo.fa(acc) + lo.fb(acc, %d)) & %s;" c mask)
  | _ ->
    (match next with
     | Some f ->
       line (Printf.sprintf "acc = (acc + f_%d((acc + %d) & 1023)) & %s;" f c
               mask)
     | None ->
       line (Printf.sprintf "loc[%d] = (loc[%d] * %d + acc) & 255;" k
               ((k + 2) land 3) ((c land 15) + 1)))

let body b rng deal i ~next =
  buf_add b (Printf.sprintf "int f_%d(int x) {\n" i);
  buf_add b
    (Printf.sprintf
       {|  int acc = (x + %d) & 65535;
  int j = 0;
  int loc[4];
  struct node *n = 0;
  struct node *m = 0;
  void *vp = 0;
  char *cp = 0;
  int *ip = 0;
  int (*fp)(int) = la_0;
  struct ops lo;
  for (j = 0; j < 4; j = j + 1) { loc[j] = (x + j * %d) & 255; }
|}
       (Rng.range rng 1 999) (Rng.range rng 1 31));
  for _ = 1 to 5 do stmt b rng ~kind:(deal ()) ~next done;
  (* every cluster member but the last calls its successor at least once *)
  (match next with
   | Some f ->
     buf_add b
       (Printf.sprintf "  acc = (acc + f_%d(acc & 1023)) & 65535;\n" f)
   | None -> ());
  buf_add b "  free_list(n);\n  checksum(acc);\n  return acc;\n}\n"

(* A table initialiser of [len] entries drawn from [count] leaves. *)
let table rng prefix count len =
  String.concat ", "
    (List.init len (fun _ -> Printf.sprintf "%s_%d" prefix (Rng.int rng count)))

(** [source ~seed ~funcs] is a MiniC program of about [funcs] functions,
    a pure function of its arguments. *)
let source ~seed ~funcs =
  let rng = Rng.create seed in
  let { leaves; bodies } = split_sizes funcs in
  let na = max 2 (leaves / 3) and nb = max 2 (leaves / 3) in
  let nv = max 2 (leaves - na - nb) in
  let b = Buffer.create (funcs * 400) in
  buf_add b prelude;
  for k = 0 to na - 1 do leaf b rng 'a' k done;
  for k = 0 to nb - 1 do leaf b rng 'b' k done;
  for k = 0 to nv - 1 do leaf b rng 'v' k done;
  buf_add b
    (Printf.sprintf "int (*tab_a[8])(int) = { %s };\n" (table rng "la" na 8));
  buf_add b
    (Printf.sprintf "int (*tab_b[8])(int, int) = { %s };\n"
       (table rng "lb" nb 8));
  buf_add b
    (Printf.sprintf "int (*tab_v[4])(struct node *) = { %s };\n"
       (table rng "lv" nv 4));
  buf_add b
    (Printf.sprintf "struct ops ops_tab[4] = { %s };\n"
       (String.concat ", "
          (List.init 4 (fun _ ->
               Printf.sprintf "{ la_%d, lb_%d }" (Rng.int rng na)
                 (Rng.int rng nb)))));
  buf_add b helpers;
  (* Clusters of 3..8 consecutive bodies; heads are called from main. *)
  let heads = ref [] in
  let i = ref 0 in
  let deal = dealer rng in
  while !i < bodies do
    let len = min (Rng.range rng 3 8) (bodies - !i) in
    heads := !i :: !heads;
    for j = !i to !i + len - 1 do
      body b rng deal j ~next:(if j < !i + len - 1 then Some (j + 1) else None)
    done;
    i := !i + len
  done;
  buf_add b
    "int main() {\n  int total = 0;\n  int j = 0;\n\
    \  for (j = 0; j < 32; j = j + 1) { g_arr[j] = j * 3; }\n";
  List.iteri
    (fun k h ->
      buf_add b
        (Printf.sprintf "  total = (total + f_%d(%d)) & 65535;\n" h (k + 1)))
    (List.rev !heads);
  buf_add b "  checksum(total);\n  print_int(total);\n  return 0;\n}\n";
  Buffer.contents b
