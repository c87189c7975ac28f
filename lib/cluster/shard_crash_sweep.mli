(** Shard crash/partition sweep for {!Sp_cluster} — the clustered
    sibling of [Sp_failover.Layer_crash_sweep].

    A fresh N-shard cluster is built per point; C concurrent [Sp_sched]
    client tasks run a seeded workload (slot writes to a private file,
    periodic syncs, hot-directory churn driving invalidation pushes),
    every op under [Sp_avail.call] with a deadline.

    {e Kill mode} (default) fail-stops one shard's serving domain at
    every (strided) global op boundary — alternating the DFS front and
    the storage level, whose rebuild remounts the journaled twins.  A
    point is [Served] only if the event-ordered per-slot durability
    floor holds, no warm serve ever crossed a lease bound, every op
    completed or failed within its deadline, fsck of every shard's twin
    disks is clean, and the supervisor actually restarted.

    {e Partition mode} cuts the network between a rotating victim
    client and the hot shard instead.  [Served] requires: warm
    (zero-message) service while partitioned and lease-held, the lease
    expiry valve firing afterwards (no serve past the bound, ever), the
    lost invalidation pushes shed through the breaker, and the mutated
    content observed after healing.  With [lease_ns = 0] every point
    must end [Unavailable] — the leaseless control. *)

(** The sweep over every (strided) global op boundary (axis [boundary]),
    for {!Sp_sweep.run}.  [ops] is the total op budget; each client runs
    [max 8 (ops / clients)] ops.  The point's index picks the victim:
    the shard (and, alternately, its DFS front or storage level) in kill
    mode, the client in partition mode.  [op_deadline_ns] (default 1s
    virtual) bounds every client op through [Sp_avail.call].  Classes
    [served] and the failing [unavailable], [lost], [corrupt]; a
    failure message starts with the victim, e.g. [kill:n1.store]. *)
val scenario :
  ?partition:bool ->
  ?lease_ns:int ->
  ?op_deadline_ns:int ->
  nodes:int ->
  clients:int ->
  ops:int ->
  seed:int ->
  unit ->
  Sp_sweep.scenario
