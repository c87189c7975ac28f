(** Bulk data path: shared buffers for data-bearing door calls.

    Spring avoided marshalling file data through the RPC machinery by
    mapping a {e bulk buffer} into both the client's and the server's
    address space and passing data through it (paper §6.4).  The
    simulation models that as a per-domain-pair {e channel}: the first
    data-bearing call between two domains charges
    [Cost_model.bulk_setup_ns] to establish the mapping, and every later
    call crosses at the cheaper [bulk_call_ns] and charges exactly one
    payload copy — the write into the shared buffer.  Same-domain calls
    hand pages by reference and charge no marshalling copy at all.

    This module holds the channel registry and the dynamic scope flag;
    the charging logic lives in {!Door} ([data_call],
    [charge_transfer], [charge_source_copy]).  The registry is keyed by
    domain-id pairs, so channels survive cache drops but not domain
    restarts (a fresh incarnation has a fresh id and pays setup again).

    The [enabled] switch exists for equivalence testing and the
    before/after bench rows: with the path disabled every helper falls
    back to the legacy accounting (full cross-domain door, one
    marshalling copy per boundary, private source copies). *)

val enabled : unit -> bool

(** [with_enabled on f] runs [f] with the bulk path on or off, restoring
    the previous state afterwards (also on exceptions). *)
val with_enabled : bool -> (unit -> 'a) -> 'a

(** [established a b] is true once a bulk channel exists between the two
    domains (symmetric). *)
val established : Sdomain.t -> Sdomain.t -> bool

(** Record a channel between two domains (idempotent). *)
val establish : Sdomain.t -> Sdomain.t -> unit

(** {1 Transfer scope}

    While a cross-domain data call is executing, payload copies at data
    sources (page cache, disk-layer file bodies) are elided — the data
    lands directly in the bulk buffer whose single copy the interface
    boundary charges.  [Door.data_call] maintains the depth. *)

val in_scope : unit -> bool

val enter_scope : unit -> unit
val exit_scope : unit -> unit
