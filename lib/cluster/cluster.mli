(** Sp_cluster — a sharded DFS with lease-coherent client caching.

    The exported namespace is sharded across N supervised server nodes
    (journaled disk twins under a Mirrorfs, a DFS front) by hashing the
    first path component; clients cache a small shard map and re-fetch it
    on {!Wrong_shard}.  Client attribute/name caching is lease-backed:
    entries serve warm — zero network messages — only while the client
    holds an unexpired per-shard lease ([Sp_sim.Simclock], never wall
    time), leases ride ordinary RPCs, server-side mutations push
    invalidations through per-destination [Sp_avail] circuit breakers
    (storm shedding), and lease expiry is the partition-safety valve:
    a client that stops hearing from a shard stops serving its cache. *)

type t
type client

(** The contacted shard does not own the path under the authoritative
    map; the client re-fetches its shard map and retries (handled
    internally by the client operations — escapes only if the map churns
    faster than the retry bound). *)
exception Wrong_shard of string

(** {1 Cluster lifecycle} *)

val default_lease_ns : int

(** [make ~net ~nodes ()] builds an [nodes]-shard cluster on [net].
    [lease_ns = 0] runs leaseless: clients cache nothing and every open
    pays a round trip (the control arm for the lease experiments).
    [blocks]/[inodes] size each shard's twin volumes. *)
val make :
  ?name:string ->
  ?lease_ns:int ->
  ?blocks:int ->
  ?inodes:int ->
  net:Sp_dfs.Net.t ->
  nodes:int ->
  unit ->
  t

(** Detach coherence subscriptions, unsupervise every shard, reset the
    invalidation breakers, and drop clients.  Sweeps call this per
    point so rebuilt clusters never receive a dead predecessor's
    callbacks. *)
val shutdown : t -> unit

val nodes : t -> int
val shard_node : t -> int -> string

(** The shard's twin disks, for direct fsck in sweeps. *)
val shard_disks : t -> int -> Sp_blockdev.Disk.t * Sp_blockdev.Disk.t

(** Authoritative owning shard of a path (by its first component). *)
val owner : t -> Sp_naming.Sname.t -> int

(** Current server-side top of a shard's stack — verification reads
    that must bypass the network and client caches. *)
val shard_top : t -> int -> Sp_core.Stackable.t

(** Fail-stop the shard's serving (DFS) front; the supervisor rebuilds
    it on the next client operation that trips [Dead_domain].
    [~store:true] kills the storage level instead: the rebuild remounts
    the journaled twins (journal replay — full crash recovery). *)
val kill_shard : ?store:bool -> t -> int -> unit

(** Total supervised restarts across shards. *)
val restarts : t -> int

(** Move the namespace under a top-level component to another shard:
    data crosses the wire once, the placement override flips, the map
    version bumps, and stale clients converge via {!Wrong_shard}. *)
val rebalance : t -> string -> to_:int -> unit

(** {1 Clients} *)

(** Connect a caching client at [node].  Clients are single-task
    actors; concurrent workloads connect one client per task. *)
val connect : t -> node:string -> client

(** Open through the lease cache.  A warm hit (lease held, epoch and
    map and incarnation unchanged) returns the cached remote proxy with
    zero network messages; a cached negative raises [No_such_file] the
    same way.  Cold opens cost one RPC to the owning shard and register
    the client for invalidation pushes. *)
val open_file : client -> Sp_naming.Sname.t -> Sp_core.File.t

val create : client -> Sp_naming.Sname.t -> Sp_core.File.t
val mkdir : client -> Sp_naming.Sname.t -> unit
val remove : client -> Sp_naming.Sname.t -> unit

(** The client's own expiry bound ([Sp_sim.Simclock] ns) for its lease
    on a shard: after this instant the client refuses its cached
    entries for that shard.  0 until the first contact. *)
val lease_deadline : client -> int -> int

(** Durable cut on the shard owning [path] / on every shard. *)
val sync_path : client -> Sp_naming.Sname.t -> unit

val sync_all : client -> unit

(** {1 Statistics} *)

type client_stats = {
  cs_warm_hits : int;  (** opens served from cache, zero messages *)
  cs_negative_hits : int;  (** cached-negative opens, zero messages *)
  cs_cold_opens : int;
  cs_invalidations : int;  (** pushes received *)
  cs_wrong_shard : int;  (** map re-fetches forced by {!Wrong_shard} *)
  cs_stale_blocked : int;  (** cache entries refused: lease lapsed *)
  cs_stale_serves : int;  (** warm serves past the lease — must be 0 *)
}

val client_stats : client -> client_stats

type stats = {
  s_inval_sent : int;  (** invalidation pushes delivered *)
  s_inval_shed : int;  (** pushes shed by breakers or lost to the net *)
  s_inval_lapsed : int;
      (** pushes skipped because the holder's lease had already lapsed
          (the holder's cache self-fences on its own clock) *)
}

val stats : t -> stats
