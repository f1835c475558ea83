(** Safe stack analysis (paper Section 3.2.4).

    An alloca can live on the safe stack iff every access to it is
    statically provably safe: direct loads/stores of the slot, or accesses
    through constant in-bounds offsets whose derived pointers never escape.
    Everything else — address passed to a callee or intrinsic, stored to
    memory, dynamic indexing, casts — forces the object onto the regular
    (unsafe) stack. *)

type verdict = Safe | Unsafe

(** Classify every alloca of the function a use-def describes: the
    per-register verdicts plus whether the function needs an unsafe frame
    at all (the FNUStack numerator). *)
val classify :
  Levee_ir.Ty.env -> Usedef.t -> (int, verdict) Hashtbl.t * bool
