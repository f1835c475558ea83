(** Workload descriptors for the evaluation suites.

    A workload is a self-contained MiniC program that terminates with a
    deterministic checksum; the benchmark harness runs each one under
    several protection configurations and requires the checksum to be
    identical across all of them (protections must not change program
    behaviour) before comparing cycle counts. *)

module Prog = Levee_ir.Prog

type lang = C | Cpp

type t = {
  name : string;
  lang : lang;                  (* which SPEC language group it models *)
  description : string;
  source : string;
  input : int array;
  fuel : int;
}

(* Compilation is deterministic and pure; cache per workload. The bench
   harness compiles from several domains at once, so the table is guarded
   by a mutex (compilation itself runs outside the lock — a duplicate
   compile of the same workload is wasted work, never wrong work). The
   first program stored is the one every caller gets, so builds of one
   workload can share a points-to solve, which is checked physically
   against the program. *)
let cache : (string, Prog.t) Hashtbl.t = Hashtbl.create 32
let cache_m = Mutex.create ()

let compile (w : t) : Prog.t =
  let cached =
    Mutex.lock cache_m;
    let c = Hashtbl.find_opt cache w.name in
    Mutex.unlock cache_m;
    c
  in
  match cached with
  | Some p -> p
  | None ->
    let p = Levee_minic.Lower.compile ~name:w.name w.source in
    Mutex.lock cache_m;
    let p =
      match Hashtbl.find_opt cache w.name with
      | Some first -> first
      | None ->
        Hashtbl.replace cache w.name p;
        p
    in
    Mutex.unlock cache_m;
    p

(** Run [w] under a protection and return the interpreter result. *)
let run ?(protection = Levee_core.Pipeline.Vanilla) (w : t) =
  let prog = compile w in
  let built = Levee_core.Pipeline.build protection prog in
  Levee_machine.Interp.run_program ~input:w.input ~fuel:w.fuel
    built.Levee_core.Pipeline.prog built.Levee_core.Pipeline.config
