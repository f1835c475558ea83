(* Example: protecting sensitive non-control data (Section 4, "sensitive
   data protection") — the paper's struct-ucred use case.

   CPI's machinery is not limited to code pointers: a programmer can
   annotate a type as sensitive and CPI will keep its values in the safe
   region, immune to memory corruption in the regular region.

     dune exec examples/sensitive_data.exe *)

module P = Levee_core.Pipeline
module M = Levee_machine

(* A login service keeps per-session credentials next to a parsing buffer.
   The classic heap/global overflow rewrites uid to 0 — unless the ucred
   type is annotated sensitive. The two builds differ only in that one
   keyword of the source. *)
let source annotation = Printf.sprintf {|
%sstruct ucred { int uid; int gid; int jailed; };

char parsebuf[12];
struct ucred session;

int is_root() { return session.uid == 0; }

int main() {
  session.uid = 1000;
  session.gid = 100;
  session.jailed = 1;
  gets(parsebuf);                  // the memory-corruption bug
  if (is_root() && session.jailed == 0) {
    system("drop-to-root-shell");
  }
  print_int(session.uid);
  print_int(session.jailed);
  return session.uid == 1000 && session.jailed == 1 ? 0 : 1;
}
|} annotation

let () =
  let plain = Levee_minic.Lower.compile (source "") in
  let annotated = Levee_minic.Lower.compile (source "sensitive ") in
  let marked (p : Levee_ir.Prog.t) =
    Levee_ir.Ty.marked_sensitive p.Levee_ir.Prog.tenv "ucred"
  in
  Printf.printf "ucred marked sensitive: plain source %b, annotated %b\n\n"
    (marked plain) (marked annotated);

  (* The exploit: overflow parsebuf to zero uid and jailed. *)
  let vanilla = P.build P.Vanilla plain in
  let image = M.Loader.load vanilla.P.prog vanilla.P.config in
  let buf = Hashtbl.find image.M.Loader.global_addr "parsebuf" in
  let cred = Hashtbl.find image.M.Loader.global_addr "session" in
  let payload = Array.make (cred - buf + 3) 0 in

  Printf.printf "%-22s %-30s %s\n" "config" "outcome" "printed uid/jailed";
  List.iter
    (fun (name, prot, prog) ->
      let built = P.build prot prog in
      let r = M.Interp.run_program ~input:payload built.P.prog built.P.config in
      Printf.printf "%-22s %-30s %s\n" name
        (M.Trap.outcome_to_string r.M.Interp.outcome)
        (String.concat "/" (String.split_on_char '\n' (String.trim r.M.Interp.output))))
    [ ("vanilla", P.Vanilla, plain);
      ("cpi (no annotation)", P.Cpi, plain);
      ("cpi + sensitive ucred", P.Cpi, annotated) ];

  print_endline "";
  print_endline "Without the annotation, even CPI lets the overflow rewrite uid —";
  print_endline "it is plain data, not a code pointer (data-only attacks are out of";
  print_endline "CPI's default scope). With 'sensitive struct ucred', every access";
  print_endline "to the credentials goes through the safe region: the overflow hits";
  print_endline "only the unused regular copy and the privilege escalation fails."
