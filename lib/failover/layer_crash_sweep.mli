(** Layer-domain crash sweep (sibling of [Sp_sfs.Crash_sweep]).

    Runs a seeded workload against the demo stack
    (disk -> coherency -> cryptfs -> compfs, journal on) under
    [Sp_supervise], fail-stopping each layer's serving domain at every
    op boundary, and verifies that the supervised stack restarts the
    layer, keeps serving, and never loses a synced byte — the per-byte
    durability floor: bytes not written since the last completed sync
    must read back exactly; bytes written since may hold the old or the
    new value; files created or removed since may or may not exist.
    After the floor check the sweep adopts the served state, runs the
    remaining ops, and requires an exact match plus a clean fsck of the
    underlying volume.

    With [supervised:false] the same kills are applied to an
    unsupervised stack; every point is then expected to end
    [Unavailable] — the control demonstrating the supervisor is what
    provides the resilience.

    With [clients > 1] the workload runs as N concurrent [Sp_sched]
    tasks (one private file each, writes and syncs only — idempotent
    under retry), every op wrapped in [Sp_avail.call] with a deadline,
    and the kill lands at a swept {e global} op boundary while the other
    clients keep calling.  Verification switches to an event-ordered
    per-byte model: a byte is pinned iff its newest covering write
    completed before the last pre-kill sync (the durability floor) or
    started after the kill; vulnerable-window and failed writes are
    indeterminate; never-written bytes must be zero.  A point is
    [Served] only if, additionally, no op failed loudly, no op overran
    its deadline, fsck is clean, and the supervisor actually
    restarted. *)

(** One crash point: kill [layer] before op [kill_at] (1-based) of an
    [ops]-op workload.  Returns the outcome and this point's counters
    ([restarts], [reconciled] clean+lost pages, and the live-client
    counters, all zero here). *)
val run_point :
  supervised:bool ->
  layer:string ->
  ops:int ->
  seed:int ->
  kill_at:int ->
  Sp_sweep.Live.outcome * (string * Sp_sweep.count) list

(** The sweep over every (layer, op boundary) pair, one axis per layer
    bottom to top, for {!Sp_sweep.run}.  [clients] (default 1) switches
    to the concurrent mode described above, with per-client ops
    [max 2 (ops / clients)] and global boundaries [clients * that];
    [op_deadline_ns] (default 1s virtual — several times the worst
    observed restart window under [paper_1993], so it bounds hangs
    without failing ops that legitimately ride through a restart) is the
    per-op deadline enforced through [Sp_avail.call].  Classes [served]
    and the failing [unavailable], [lost], [corrupt]. *)
val scenario :
  ?supervised:bool ->
  ?clients:int ->
  ?op_deadline_ns:int ->
  ops:int ->
  seed:int ->
  unit ->
  Sp_sweep.scenario
