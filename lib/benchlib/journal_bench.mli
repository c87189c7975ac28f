(** Journal group-commit benchmark: {!Scale}'s sync-heavy mix (journaled
    base, a sync every 4th op per client) at growing concurrency,
    reporting syncs per commit, absorbed syncs and sync-call p99 — the
    batching the group-commit window buys under concurrent durability
    load.  One row is one deterministic discrete-event run. *)

type row = Scale.row

(** The journal table (default 1 / 64 / 1000 clients). *)
val run : ?clients:int list -> ?seed:int -> unit -> row list

val print : Format.formatter -> row list -> unit
