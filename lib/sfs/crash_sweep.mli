(** Crash-consistency sweep harness.

    Runs a deterministic workload (seeded by an explicit integer) against
    a fresh disk-layer volume, crashes it at the [N]-th device write via
    an {!Sp_fault} fail-stop (or torn-write-then-crash) rule, then
    recovers: replay the journal, {!Fsck.check} the device, remount, and
    compare the surviving files against the workload's own record of what
    had been synced.

    The invariant checked per crash point: the recovered volume is
    Fsck-clean and its contents equal one of the two consistent cuts a
    write-ahead journal guarantees — the state as of the last completed
    sync, or (when the crash hit after the in-flight transaction was
    sealed) the state the interrupted sync was committing.  Journaled
    volumes must survive every point of the sweep; unjournaled volumes
    are expected to fail at some points, which is how the sweep proves
    the injector works.

    Everything — workload, crash schedule, torn-write fractions — derives
    from the seed, so a sweep replays bit-identically. *)

type outcome =
  | Survived
  | Lost of string  (** Fsck clean, but contents match no consistent cut *)
  | Corrupt of string  (** Fsck found structural inconsistencies *)
  | Detected of string
      (** structure parses, but block checksums flagged wrong bytes — the
          damage was positively detected, never silently served *)

(** Device writes the workload performs after mount (an exclusive upper
    bound for useful crash points).  [checksums] (default true) formats
    the volume with a checksum region, which changes the write count.
    With [clients > 1] the workload runs as that many concurrently
    interleaved [Sp_sched] tasks, each doing [ops] operations on its own
    disjoint files of the shared volume.  [sync_heavy] (default false)
    doubles the periodic sync rate (every 2 ops instead of 5), so the
    sweep's crash points fall inside commit windows far more often. *)
val workload_writes :
  ?checksums:bool -> ?clients:int -> ?sync_heavy:bool -> journal:bool ->
  ops:int -> seed:int -> unit -> int

(** Run the workload once, crashing at the [crash_at]-th device write
    (1-based; a [crash_at] beyond the workload's writes means no crash),
    then recover and verify.  [torn] makes the crash write a torn block
    first.  With [checksums] (default true) recovery also verifies block
    checksums: damage the structural fsck pass cannot see — an
    unjournaled torn write, a crash between a raw data write and its
    checksum write-through — comes back as {!Detected} rather than
    passing silently or escaping as an exception.

    With [clients > 1] the workload is the concurrent one: verification
    switches to per-file version histories with a durable floor — each
    recovered file must match some version at least as new as the one
    current at the last completed sync (any client's sync commits the
    whole volume). *)
val run_point :
  ?torn:bool -> ?checksums:bool -> ?clients:int -> ?sync_heavy:bool ->
  journal:bool -> ops:int -> seed:int -> crash_at:int -> unit -> outcome

(** The sweep over every device write of the workload (axis [write]),
    for {!Sp_sweep.run}.  Classes [survived], and the failing [lost],
    [corrupt] and [detected]; verdict line e.g.
    ["CRASH-SWEEP journal=on checksums=on points=134 survived=134 lost=0 corrupt=0 detected=0 seed=7 ops=30 io=134"]. *)
val scenario :
  ?torn:bool -> ?checksums:bool -> ?clients:int -> ?sync_heavy:bool ->
  journal:bool -> ops:int -> seed:int -> unit -> Sp_sweep.scenario
