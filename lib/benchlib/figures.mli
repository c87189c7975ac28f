(** Executable reproductions of the paper's configuration figures that
    carry a measurable observable. *)

(** Print the Figure 2 channel counts and the Figures 5/6 cost of the
    COMPFS→SFS coherent mode (a warm 4 KB write+sync through COMPFS in
    each stacking mode). *)
val print : Format.formatter -> unit -> unit
