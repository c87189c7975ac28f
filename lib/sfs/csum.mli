(** Per-block checksums for the SFS on-disk format.

    The checksum region ({!Layout.t.csum_start}, sized by [Layout]) holds
    one 32-bit FNV-1a checksum per device block, taken over the full
    zero-padded block.  Every block is covered except the region itself
    and the journal area: the journal already checksums its contents, and
    covering the region would make updates recursive.

    A [t] is the in-memory image of the region.  [Journal.write] calls
    {!record} on every store, and [Journal.read] calls {!check} on every
    device read with the device's own sum of the block
    ({!Sp_blockdev.Disk.sum}), so silent corruption anywhere below — bit
    rot, a misdirected write, a lost write — surfaces as
    {!Sp_core.Fserr.Checksum_error} instead of wrong bytes.  Nothing here
    folds a block read from the device: the device folds each stored
    block at most once per content, and a write hands it the sum
    {!record} folded ({!Sp_blockdev.Disk.adopt_sum}).  On a journaled
    dev the dirty region blocks join the same commit batch as the data
    they describe, preserving crash atomicity; on a raw dev they are
    written through after the data.

    Verifying and recording charge simulated CPU via
    [Sp_obj.Door.charge_cpu] (free under the [fast] model, visible in the
    [scrub] bench table under [paper_1993]). *)

type t

(** 32-bit FNV-1a over the given bytes ({!Sp_dir.Hash.fold}).  Exposed
    for tests, integrityfs, the journal's header checksum and the commit
    entries of blocks that {!record} does not fold (checksum-region
    images, and every block on a volume without checksums). *)
val cksum : bytes -> int

(** Checksum of the zero-padded-to-a-block extension of the data. *)
val cksum_padded : bytes -> int

(** CPU cost of hashing [len] bytes, in [Door.charge_cpu] units. *)
val work_units : int -> int

(** Load the checksum region from the device; [None] when the layout has
    no region ([csum_blocks = 0]). *)
val attach : Sp_blockdev.Disk.t -> Layout.t -> t option

(** Initialise and write the checksum region at [mkfs] time: the
    zero-block checksum for every covered block, plus the actual contents
    of the metadata blocks below [data_start].  Assumes the data region
    is zero-filled (fresh device).  No-op when [csum_blocks = 0]. *)
val format : Sp_blockdev.Disk.t -> Layout.t -> unit

(** Is block [n] covered by a checksum? *)
val covers : t -> int -> bool

(** The region block holding the checksum entry for covered block [n]. *)
val home : t -> int -> int

(** Fold [data] ({!cksum_padded}) and return the sum.  When [n] is
    covered, also charge the fold's CPU, update [n]'s in-memory entry and
    mark its region block dirty; an uncovered [n] is folded only.  The
    caller flushes dirty region blocks — write-through on raw devs,
    same-batch on journaled commits, whose header entries reuse the
    returned sum instead of folding the block again. *)
val record : t -> int -> bytes -> int

(** [matches t n sum] is [true] when [n] is uncovered or [sum], the fold
    of the block's full contents (the device's {!Sp_blockdev.Disk.sum}),
    equals its entry.  A covered block charges one block fold's CPU. *)
val matches : t -> int -> int -> bool

(** Raise [Fserr.Checksum_error] (bumping [Metrics.checksum_failures] and
    emitting a trace instant) unless {!matches}. *)
val check : t -> label:string -> int -> int -> unit

(** Region blocks (absolute indices, sorted) recorded since the last
    {!clear_dirty}. *)
val dirty : t -> int list

(** Copy of the current image of region block [cb] (absolute index). *)
val image : t -> int -> bytes

val clear_dirty : t -> unit
