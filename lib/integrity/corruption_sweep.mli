(** Silent-corruption sweep harness — the checksum counterpart of
    {!Sp_sfs.Crash_sweep}.

    For every device I/O of a deterministic seeded workload, a fresh
    journaled volume is built and exactly one silent corruption fault is
    injected at that point: {!Bitrot} (one stored bit flips on a read),
    {!Misdirected} (a write lands on the wrong block), or {!Lost} (a
    write is acknowledged but never stored).  The workload includes reads
    whose results are discarded — the application never checks its own
    data, so only the system's integrity machinery can catch the damage.

    After the workload the sweep verifies from stored bytes (fsck with
    checksum verification plus a fresh remount, or a cache-dropped read
    through the mirror) and classifies the point.  The invariant:
    {!Silent} never happens on a checksummed volume.  The
    [~checksums:false] control exists to prove the sweep would see it —
    there, bit rot in file data comes back {!Silent}. *)

type kind =
  | Bitrot  (** one bit of a stored block flips, surfacing on a read *)
  | Misdirected  (** a write lands on some other block; the target keeps stale data *)
  | Lost  (** a write is acknowledged but never reaches the platter *)

type outcome =
  | Absorbed
      (** the damaged bytes were overwritten or freed before any read;
          read-back content is correct and nothing fired *)
  | Detected of string
      (** a [Checksum_error] (or other loud failure: fsck flag, I/O
          error, refused mount) — the system never served wrong bytes *)
  | Repaired
      (** mirror mode: content is correct and the mirror healed at least
          one twin copy along the way *)
  | Silent of string
      (** read-back content differs from what was written and nothing
          complained — the failure checksums exist to rule out *)

val kind_name : kind -> string

(** Build a fresh volume (or mirrored pair; corruption always strikes the
    primary twin), run the workload with the single fault armed at the
    [at]-th device I/O, then verify from stored bytes. *)
val run_point :
  ?checksums:bool -> ?mirror:bool -> ?clients:int -> kind:kind -> ops:int ->
  seed:int -> at:int -> unit -> outcome

(** The sweep over every device I/O of the faulted kind (the axis is
    named after the kind), for {!Sp_sweep.run}.  Classes [absorbed],
    [detected], [repaired] and the failing [silent]; verdict line e.g.
    ["SCRUB-SWEEP kind=bitrot checksums=on mirror=off points=11 absorbed=0 detected=11 repaired=0 silent=0 seed=7 ops=14 io=11"]. *)
val scenario :
  ?checksums:bool -> ?mirror:bool -> ?clients:int -> kind:kind -> ops:int ->
  seed:int -> unit -> Sp_sweep.scenario
