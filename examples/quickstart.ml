(* Quickstart: compile a MiniC program, protect it with CPI, run it, and
   watch CPI stop an exploit that hijacks the unprotected build.

     dune exec examples/quickstart.exe

   This is the fastest tour of the public API:
     Levee_minic.Lower.compile   : MiniC source -> IR
     Levee_core.Pipeline.build   : IR -> instrumented IR + machine config
     Levee_machine.Interp.run_program : execute and observe the outcome *)

module P = Levee_core.Pipeline
module M = Levee_machine

(* A tiny network service: it reads a request into a stack buffer with
   gets() — the classic bug — and then calls a handler through a function
   pointer. The backdoor function is never called legitimately. *)
let source = {|
int handle_hello(int n) { print_str("hello"); return n; }
int handle_stats(int n) { print_int(n); return n + 1; }

int backdoor() { system("/bin/sh"); return 0; }

int serve() {
  int (*handler)(int);
  char request[8];
  handler = handle_hello;
  gets(request);
  if (request[0] == 's') { handler = handle_stats; }
  return handler(3);
}

int main() {
  serve();
  print_str("bye");
  return 0;
}
|}

let run_with ~name ~input protection prog =
  let built = P.build protection prog in
  let r = M.Interp.run_program ~input built.P.prog built.P.config in
  Printf.printf "  %-10s -> %-40s (cycles: %d)\n" name
    (M.Trap.outcome_to_string r.M.Interp.outcome)
    r.M.Interp.cycles;
  r

let () =
  print_endline "== 1. compile ==";
  let prog = Levee_minic.Lower.compile ~name:"service.c" source in
  Printf.printf "  compiled: %d functions\n"
    (List.length prog.Levee_ir.Prog.func_order);

  print_endline "\n== 2. benign request under every configuration ==";
  let benign = [| Char.code 'h'; Char.code 'i' |] in
  List.iter
    (fun prot ->
      ignore (run_with ~name:(P.protection_name prot) ~input:benign prot prog))
    [ P.Vanilla; P.Safe_stack; P.Cps; P.Cpi ];

  print_endline "\n== 3. the exploit ==";
  print_endline "  (overflows 'request' to redirect 'handler' at backdoor)";
  (* The attacker studies the unprotected binary's frame layout. *)
  let vanilla = P.build P.Vanilla prog in
  let image = M.Loader.load vanilla.P.prog vanilla.P.config in
  let target = M.Loader.entry_addr image "backdoor" in
  let fn = Levee_ir.Prog.find_func vanilla.P.prog "serve" in
  let handler_reg, buf_reg =
    match Levee_attacks.Attack.allocas_of fn with
    | (h, _) :: (b, _) :: _ -> (h, b)
    | _ -> failwith "unexpected frame"
  in
  let layout = M.Loader.layout image "serve" in
  let off r = (Hashtbl.find layout.M.Loader.fl_slots r).M.Loader.sl_offset in
  let dist = off buf_reg - off handler_reg in
  let payload = Array.make (dist + 1) (Char.code 'A') in
  payload.(dist) <- target;
  Printf.printf "  payload: %d filler words, then the backdoor address %#x\n\n"
    dist target;
  List.iter
    (fun prot -> ignore (run_with ~name:(P.protection_name prot) ~input:payload prot prog))
    [ P.Vanilla; P.Safe_stack; P.Cps; P.Cpi ];

  print_endline "\n== what happened ==";
  print_endline
    "  vanilla:   the overflow rewrote the function pointer; control reached";
  print_endline "             system() — a successful control-flow hijack.";
  print_endline
    "  safestack: the scalar function pointer lives on the safe stack, out of";
  print_endline "             the overflow's reach: the request is served normally.";
  print_endline
    "  cps/cpi:   code pointers live in the safe region; the corrupted regular";
  print_endline "             copy is never used. The hijack is silently prevented."
