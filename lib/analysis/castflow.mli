(** Data-flow augmentation for unsafe pointer casts (paper Section 3.2.1).

    If a value is cast to a sensitive pointer type, the load that produced
    it must also be routed through the safe store so its based-on metadata
    survives the detour through the non-sensitive type. Like the paper's
    analysis this is intra-procedural and may miss flows it cannot recover,
    which can cause false violation reports but no loss of protection. *)

(** Positions of loads to force-instrument in the function of the given
    use-def chains. *)
val forced_load_positions : Sensitivity.ctx -> Usedef.t -> Usedef.marks

(** Positions of casts producing a sensitive pointer type: the unsafe
    casts whose source provenance the dataflow recovers. *)
val unsafe_cast_positions :
  Sensitivity.ctx -> Levee_ir.Prog.func -> Usedef.marks
