(** Global event counters for the simulated system.

    Tests use counter snapshots to assert structural properties that the
    paper states qualitatively — e.g. "when the coherency layer caches data
    there are no calls to the lower layer", or "local page traffic does not
    involve DFS".

    The live counters are bumped in place, so an increment never
    allocates; a {!snapshot} is an immutable copy taken at a measurement
    boundary. *)

type snapshot = {
  cross_domain_calls : int;
  local_calls : int;
  kernel_calls : int;
  page_faults : int;
  page_ins : int;
  page_outs : int;
  disk_reads : int;
  disk_writes : int;
  net_messages : int;
  net_bytes : int;
  coherency_actions : int;  (** deny_writes/flush_back/write_back issued *)
  attr_fetches : int;  (** fs_pager attribute fetches that left a layer *)
  faults_injected : int;  (** faults fired by an armed [Sp_fault] plan *)
  net_retries : int;  (** RPC attempts repeated after drop/timeout *)
  checksum_failures : int;  (** reads whose data failed checksum verification *)
  integrity_repairs : int;  (** corrupt blocks rewritten from a good copy *)
  bulk_handoffs : int;
      (** payloads handed over without a marshalling copy (same-domain by
          reference, or a source writing straight into a bulk buffer) *)
  bulk_copies : int;  (** payloads copied once into a shared bulk buffer *)
  bulk_setups : int;  (** bulk channels established (one per domain pair) *)
  readahead_hits : int;  (** faults absorbed by a previously prefetched page *)
  readahead_wasted : int;  (** prefetched pages retired without ever being hit *)
  name_cache_hits : int;  (** resolutions served from a {!Sp_naming.Name_cache} *)
  name_cache_misses : int;  (** resolutions that had to walk the context chain *)
  name_cache_negative_hits : int;
      (** lookups answered "unbound" from a cached negative entry *)
  queue_ns : int;
      (** virtual time tasks spent waiting for a contended resource (door
          station, disk queue, Mrsw lock) before being served *)
  avail_shed : int;
      (** ops fast-failed by an open [Sp_avail] circuit breaker instead of
          queueing behind a dead domain *)
  avail_retried : int;  (** ops that succeeded only after availability retry *)
  avail_failed : int;
      (** ops that exhausted retry/deadline and surfaced an error *)
  avail_degraded : int;  (** ops served by a degraded (read-only) fallback *)
}

(** Read a single counter without taking a full snapshot. *)
val net_messages : unit -> int

val incr_cross_domain_calls : unit -> unit
val incr_local_calls : unit -> unit
val incr_kernel_calls : unit -> unit
val incr_page_faults : unit -> unit
val incr_page_ins : unit -> unit
val incr_page_outs : unit -> unit
val incr_disk_reads : unit -> unit
val incr_disk_writes : unit -> unit
val incr_net_messages : unit -> unit
val add_net_bytes : int -> unit
val incr_coherency_actions : unit -> unit
val incr_attr_fetches : unit -> unit
val incr_faults_injected : unit -> unit
val incr_net_retries : unit -> unit
val incr_checksum_failures : unit -> unit
val incr_integrity_repairs : unit -> unit
val incr_bulk_handoffs : unit -> unit
val incr_bulk_copies : unit -> unit
val incr_bulk_setups : unit -> unit
val incr_readahead_hits : unit -> unit
val incr_readahead_wasted : unit -> unit
val incr_name_cache_hits : unit -> unit
val incr_name_cache_misses : unit -> unit
val incr_name_cache_negative_hits : unit -> unit
val queue_ns : unit -> int
val add_queue_ns : int -> unit
val incr_avail_shed : unit -> unit
val incr_avail_retried : unit -> unit
val incr_avail_failed : unit -> unit
val incr_avail_degraded : unit -> unit

(** Copy the current counter values.  The copy never changes afterwards
    (trace spans keep snapshots). *)
val snapshot : unit -> snapshot

(** The all-zero snapshot. *)
val zero : snapshot

(** [diff ~before ~after] is the per-counter difference. *)
val diff : before:snapshot -> after:snapshot -> snapshot

(** [add a b] is the per-counter sum (used when accumulating the deltas of
    sibling trace spans). *)
val add : snapshot -> snapshot -> snapshot

(** Reset every counter to zero. *)
val reset : unit -> unit

val pp : Format.formatter -> snapshot -> unit
