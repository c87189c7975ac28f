(** Write-ahead (physical block) journal for the SFS disk layer.

    Modelled on the journaling ext3 layers over ext2 (data=journal mode):
    between commits, block writes buffer in memory; [commit] then writes
    every dirty block to the journal area, seals the transaction with a
    checksummed commit header, copies the blocks to their home locations,
    and finally marks the journal clean.  A crash at any point leaves the
    device in one of two recoverable states:

    - commit header absent/unsealed → the transaction never happened;
      the home locations still hold the previous contents;
    - commit header sealed → [replay] (run automatically at [attach],
      i.e. at mount) copies the journalled blocks home again.

    Checksums over the header and each journalled block defeat torn
    journal writes: a torn commit header or torn journal data block fails
    verification and the transaction is treated as uncommitted.

    The journal area is [1 + capacity] blocks placed before the layout's
    [data_start], so {!Fsck} (which scans only the data region) never
    sees it.  A commit whose dirty set exceeds the journal capacity is
    split into several independently-atomic batches; crash atomicity then
    holds per batch, not per sync — callers keep transactions small by
    syncing regularly.

    Batches pipeline: the journal-area data blocks of a batch go out as
    one vectored elevator request (the area is contiguous — one seek,
    back-to-back transfers), and the clean-mark header write between
    consecutive batches of one commit is elided — the next batch's sealed
    header, carrying a higher seq, supersedes the previous seal, and one
    clean mark is written after the last batch.  Replay stays sound
    because a batch's home copies all complete before the next batch
    reuses the journal area: a sealed header whose journal blocks have
    been partly overwritten by the next batch fails per-entry checksum
    verification and is treated as uncommitted — correctly, since the
    batch it describes is already home. *)

type t

(** A block device endpoint as the disk layer sees it: the raw device
    (unjournaled, writes go straight through) or a journaled view, either
    optionally verified by a {!Csum} region.  All disk-layer I/O goes
    through {!read}/{!write} on a [dev]. *)
type dev

(** Write a clean journal header at block [start] (used by [mkfs]). *)
val init : Sp_blockdev.Disk.t -> start:int -> unit

(** Replay a sealed transaction if the header at [start] holds one;
    returns the number of blocks copied home (0 when clean, torn, or
    unformatted).  Idempotent. *)
val replay : Sp_blockdev.Disk.t -> start:int -> int

(** [attach disk ~start ~blocks] replays any sealed transaction, then
    returns a journal writing to the [blocks]-block area at [start]. *)
val attach : Sp_blockdev.Disk.t -> start:int -> blocks:int -> t

(** Unjournaled, unverified dev: straight passthrough to the device. *)
val raw : Sp_blockdev.Disk.t -> dev

(** [make ?journal ?csum disk] assembles a dev: an attached journal
    buffers writes until {!commit}; an attached {!Csum} verifies every
    device read and maintains the checksum region on every write. *)
val make : ?journal:t -> ?csum:Csum.t -> Sp_blockdev.Disk.t -> dev

(** [fence dev f] installs an incarnation fence: [f] runs before every
    device read or write issued through [dev] (including each block of a
    {!commit}).  The disk layer points it at its domain's liveness so a
    fiber resumed from a device-charge suspension after its mount was
    killed dies ([Sdomain.Dead_domain]) instead of tearing the raw disk
    behind a remounted, journal-replayed successor.  Mid-commit deaths
    leave exactly the torn-transaction states {!replay} already
    tolerates.  Default: no-op. *)
val fence : dev -> (unit -> unit) -> unit

(** The attached journal, if any. *)
val journal : dev -> t option

(** [read dev n]: dirty buffered blocks are served from memory (free,
    like a cache); everything else comes from the device and, when a
    [Csum] is attached, is verified against its recorded checksum —
    raising [Fserr.Checksum_error] on mismatch. *)
val read : dev -> int -> bytes

(** [write dev n data]: on a raw dev, straight to the device (followed by
    a write-through of the affected checksum-region block when a [Csum]
    is attached); on a journaled dev, buffered in memory until
    {!commit}.

    A full block is buffered as given, not copied (a shorter [data] is
    copied into a zero-padded block).  The caller therefore either
    gives [data] up, or owns it as a cache block that it mutates only
    under the volume lock, which every {!commit} holds, and writes
    again after each mutation: a commit then writes exactly what the
    last mutation left.  A caller holding a borrowed buffer (a client
    payload) copies it first.  {!read} of a buffered block still
    returns a copy. *)
val write : dev -> int -> bytes -> unit

(** [write_vec dev [(n, data); ...]]: one clustered-writeback extent,
    blocks in ascending order.  Equivalent to [write] per block except on
    a raw checksummed dev, where the data blocks go out back to back (one
    seek plus a contiguous transfer under the device's head-adjacency
    model) and the checksum region is flushed once for the whole extent
    instead of once per block. *)
val write_vec : dev -> (int * bytes) list -> unit

(** Commit buffered writes (no-op on raw devs or when nothing is dirty).
    With a [Csum] attached, each batch's dirty checksum-region blocks are
    appended to that batch's transaction, so data and checksums commit
    atomically together. *)
val commit : dev -> unit

(** Dirty blocks currently buffered (0 for raw devs). *)
val pending : dev -> int

(** Count a leader-run group commit / an absorbed sync against the dev's
    journal (no-op on raw devs).  Called by the disk layer's sync path —
    the leader/follower protocol lives there, the journal only keeps the
    books. *)
val note_group_commit : dev -> unit

val note_absorbed : dev -> unit

type stats = {
  js_commits : int;  (** sealed transactions written *)
  js_journal_writes : int;  (** device writes spent on the journal area *)
  js_replayed : int;  (** blocks copied home by replay at attach *)
  js_group_commits : int;  (** commits run by a group-commit leader *)
  js_absorbed_syncs : int;
      (** syncs that returned by riding another caller's commit instead
          of running their own *)
}

val stats : t -> stats
