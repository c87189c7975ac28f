(** Failover ablation: supervised restart of a crashed pager layer, and
    availability of the layer-crash sweep under live concurrent clients. *)

(** Restart latency and reconciliation bill at three client cache sizes. *)
type t

val run : unit -> t
val print : Format.formatter -> t -> unit

(** One client count of the concurrent layer-crash sweep. *)
type avail_row = {
  a_clients : int;
  a_points : int;  (** kill points sampled *)
  a_served : int;  (** of which fully served *)
  a_lost : int;
  a_corrupt : int;
  a_op_served : int;  (** client ops completed across all points *)
  a_retried : int;  (** of which only after an availability retry *)
  a_shed : int;
  a_failed : int;
  a_deadline_misses : int;
  a_recover_ns : int;  (** worst kill -> first-served-again gap *)
}

(** The sweep at 10, 64 and 1000 clients. *)
val avail : unit -> avail_row list

val print_avail : Format.formatter -> avail_row list -> unit
