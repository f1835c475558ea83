(* Canonical cell enumerations for the bench targets.

   Kept in the harness library (rather than in bench/main.ml) so the test
   tier can run the exact same computation — e.g. the determinism
   regression test replays the table1 cells at --jobs 1 and --jobs 4 and
   compares journals. Order matters: cells are journalled in this order,
   whatever the pool's scheduling does. *)

module P = Levee_core.Pipeline
module W = Levee_workloads
module M = Levee_machine

(* Workload-major, protection-minor: the order the sequential harness
   computed cells in (each table row computes all its columns). *)
let cells workloads protections =
  List.concat_map
    (fun w -> List.map (fun p -> Engine.cell w p) protections)
    workloads

(* Spectrum members appended after the paper's own columns so the
   established rows keep their relative order within each workload. *)
let spec_protections =
  [ P.Vanilla; P.Safe_stack; P.Cps; P.Cpi; P.Cfi_type; P.Cpi_crypt ]

let table1 () = cells W.Spec.all spec_protections
let fig3 = table1

let table3 () =
  let ws =
    List.map W.Spec.find [ "401.bzip2"; "447.dealII"; "458.sjeng"; "464.h264ref" ]
  in
  cells ws (spec_protections @ [ P.Softbound ])

let fig4 () = cells W.Phoronix.all spec_protections
let table4 () = cells W.Webstack.all spec_protections

let fig5 () =
  table1 ()
  @ cells W.Spec.all [ P.Softbound; P.Hardened; P.Cookies; P.Cfi ]

(* The subsets below are what bench/main.ml prints from, so the cells
   prefetched and the cells printed are one list. *)

(* Section 5.2's memory table: the pointer-heavy half of the suite, where
   the safe region is exercised, under each store organisation in the
   table's column order. *)
let memtable_workloads =
  List.filter
    (fun (w : W.Workload.t) ->
      List.mem w.W.Workload.name
        [ "400.perlbench"; "403.gcc"; "447.dealII"; "450.soplex";
          "453.povray"; "471.omnetpp"; "483.xalancbmk"; "429.mcf" ])
    W.Spec.all

let memtable_stores =
  [ M.Safestore.Simple_array; M.Safestore.Hashtable; M.Safestore.Two_level ]

let memtable () =
  cells memtable_workloads [ P.Vanilla ]
  @ List.concat_map
      (fun prot ->
        List.concat_map
          (fun impl ->
            List.map
              (fun w -> Engine.cell ~store_impl:impl w prot)
              memtable_workloads)
          memtable_stores)
      [ P.Cps; P.Cpi ]

(* The ablations' dispatch-heavy pair and every store organisation. *)
let ablation_workloads =
  [ W.Spec.find "400.perlbench"; W.Spec.find "471.omnetpp" ]

let ablation_stores =
  [ M.Safestore.Simple_array; M.Safestore.Two_level; M.Safestore.Hashtable;
    M.Safestore.Mpx ]

let ablation () =
  cells ablation_workloads [ P.Vanilla ]
  @ List.concat_map
      (fun impl ->
        List.map
          (fun w -> Engine.cell ~store_impl:impl w P.Cpi)
          ablation_workloads)
      ablation_stores
  @ cells ablation_workloads [ P.Cpi_debug ]

(* Section 5.3's "distribution": every workload in the tree. *)
let distro_packages =
  W.Spec.all @ W.Phoronix.all @ W.Webstack.all @ W.Base_system.all

let distro () =
  cells distro_packages [ P.Vanilla; P.Safe_stack; P.Cps; P.Cpi ]

let by_name =
  [ ("table1", table1); ("fig3", fig3); ("table3", table3); ("fig4", fig4);
    ("table4", table4); ("fig5", fig5); ("memtable", memtable);
    ("ablation", ablation); ("distro", distro) ]
