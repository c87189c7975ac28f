(** Executable reproductions of the paper's configuration figures that
    carry a measurable observable. *)

(** Figures 5/6: cost of the COMPFS→SFS coherent mode.  Returns
    [(incoherent_write_ns, coherent_write_ns)] for a warm 4 KB write
    through COMPFS in each stacking mode. *)
val fig56_compfs_modes : unit -> int * int

val print : Format.formatter -> unit -> unit
