(** Clustered DFS benchmark: the {!Sp_cluster} sharded cluster under a
    closed-loop client load (paper_1993 model).  Each row runs a fixed
    op budget at one node count, twice — lease-cached and the leaseless
    control — and reports aggregate throughput, warm (zero-message)
    hits, and the directly-measured messages-per-reopen of both arms. *)

type row = {
  d_nodes : int;
  d_clients : int;
  d_ops : int;  (** client ops completed, both arms alike *)
  d_elapsed_ns : int;  (** leased arm makespan *)
  d_throughput : float;  (** leased ops per simulated second *)
  d_warm_hits : int;  (** opens served with zero messages *)
  d_ctl_elapsed_ns : int;  (** leaseless control makespan *)
  d_open_msgs : float;  (** messages per warm reopen (leased — 0) *)
  d_ctl_open_msgs : float;  (** messages per reopen, leaseless *)
}

(** The dfs table (default 1 / 2 / 4 / 8 nodes). *)
val run : ?nodes:int list -> ?seed:int -> unit -> row list

val print : Format.formatter -> row list -> unit
