(** Cost model for the simulated Spring substrate.

    Costs are expressed in nanoseconds and charged to {!Simclock} by the
    subsystems ([Door] for invocations, [Disk] for storage, [Net] for the
    DFS network).  The [paper_1993] preset is calibrated so that the
    regenerated Table 2 / Table 3 have the same order of magnitude and the
    same ratios as the SPARCstation 10 numbers in the paper; [fast] is a
    near-zero model useful for wall-clock benchmarking of the code paths
    themselves. *)

type t = {
  local_call_ns : int;  (** same-domain object invocation (procedure call) *)
  cross_domain_call_ns : int;  (** cross-domain door invocation, round trip *)
  kernel_call_ns : int;  (** trap into the nucleus / VMM *)
  page_fault_ns : int;  (** fault handling overhead, excluding pager work *)
  copy_per_byte_ns : int;  (** memory copy cost per byte *)
  cpu_op_ns : int;  (** one unit of simulated CPU work (compress, crypt) *)
  open_state_ns : int;  (** per-layer open-file state maintenance on each open *)
  disk_seek_ns : int;  (** average seek *)
  disk_rotate_ns : int;  (** average rotational delay (half a revolution) *)
  disk_per_block_ns : int;  (** media transfer time for one block *)
  net_rtt_ns : int;  (** network round trip, small message *)
  net_per_byte_ns : int;  (** network transfer cost per payload byte *)
  bulk_setup_ns : int;
      (** one-time cost of establishing a shared bulk buffer between two
          domains (mapping pages into both address spaces); charged on the
          first data-bearing call of a domain pair, never per call *)
  bulk_call_ns : int;
      (** cross-domain data-bearing door call once a bulk channel is
          established (cheaper than [cross_domain_call_ns]: arguments ride
          in the pre-mapped buffer) *)
  readahead_max_pages : int;
      (** cap on the adaptive per-entry read-ahead window ([Vmm]); 0
          disables adaptive read-ahead entirely *)
  commit_delay_ns : int;
      (** group-commit window: how long a sync leader waits (idle) for
          concurrent syncs to join its transaction before sealing; 0
          disables the wait (the leader seals immediately) *)
}

(** Cost model approximating the paper's 40 MHz SPARCstation 10 with a
    424 MB 4400 RPM disk and a 10 Mb/s-era network. *)
val paper_1993 : t

(** The model consulted by all subsystems.  Defaults to [paper_1993]. *)
val current : unit -> t

(** [with_model m f] runs [f ()] with [m] installed, restoring the previous
    model afterwards (also on exceptions). *)
val with_model : t -> (unit -> 'a) -> 'a
