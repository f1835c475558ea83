(* Development scratch: classic return-address smash via gets(). *)

module P = Levee_core.Pipeline
module M = Levee_machine

let src = {|
int helper() { return 1; }
int backdoor() { system("pwned"); return 0; }

int vuln() {
  char buf[4];
  gets(buf);
  return buf[0];
}

int main() {
  helper();
  vuln();
  print_str("done");
  return 0;
}
|}

let () =
  let prog = Levee_minic.Lower.compile ~name:"smash" src in
  let failed = ref false in
  List.iter
    (fun prot ->
      let built = P.build prot prog in
      let image = M.Loader.load built.P.prog built.P.config in
      (* Attacker knowledge: layout of vuln's frame in the unprotected
         build (no ASLR adjustment -> hardened config should crash). *)
      let layout = M.Loader.layout image "vuln" in
      let vuln_fn = Levee_ir.Prog.find_func built.P.prog "vuln" in
      let buf_reg =
        let r = ref (-1) in
        Levee_ir.Prog.iter_instrs vuln_fn (fun i ->
            match i with
            | Levee_ir.Instr.Alloca { dst; ty = Levee_ir.Ty.Arr _; _ } -> r := dst
            | _ -> ());
        !r
      in
      let slot = Hashtbl.find layout.M.Loader.fl_slots buf_reg in
      (* distance from buf[0] up to the return slot *)
      let dist = slot.M.Loader.sl_offset - layout.M.Loader.fl_ret_offset in
      (* attacker targets backdoor's entry in the NON-ASLR image *)
      let plain_image =
        M.Loader.load built.P.prog { built.P.config with M.Config.aslr = false }
      in
      let target = M.Loader.entry_addr plain_image "backdoor" in
      let payload = Array.make (dist + 1) 0x41 in
      payload.(dist) <- target;
      let res = M.Interp.run ~input:payload image in
      (* The smash must succeed on the unprotected build and be stopped
         (trap or harmless exit, never a hijack) by every other one. *)
      (match prot, res.M.Interp.outcome with
       | P.Vanilla, M.Trap.Hijacked _ -> ()
       | P.Vanilla, _ -> failed := true
       | _, M.Trap.Hijacked _ -> failed := true
       | _, _ -> ());
      Printf.printf "%-18s dist=%d -> %s\n" (P.protection_name prot) dist
        (M.Trap.outcome_to_string res.M.Interp.outcome))
    P.all_protections;
  if !failed then begin
    print_endline "smash: protection expectation violated";
    exit 1
  end
