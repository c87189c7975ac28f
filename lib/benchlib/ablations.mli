(** Ablation benchmarks for the design points DESIGN.md calls out. *)

type result = { label : string; baseline_ns : int; variant_ns : int; note : string }

(** A DFS-imported remote file plus a client-side CFS and VMM (shared by
    the remote-path ablations and {!Bulk_bench}). *)
val make_remote : string -> Sp_core.File.t * Sp_cfs.Cfs.t * Sp_vm.Vmm.t

(** Stacking-depth sweep: warm open and cached 4KB read cost for towers of
    1..4 layers (the "without sacrificing performance" claim).  Returns
    [(depth, open_ns, read_ns)] rows. *)
val depth_sweep : unit -> (int * int * int) list

val print_depth_sweep : Format.formatter -> (int * int * int) list -> unit

val run_all : unit -> result list

val print : Format.formatter -> result list -> unit
