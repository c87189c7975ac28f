(** Simulated block device.

    Substitute for the paper's 424 MB 4400 RPM SCSI disk: an in-memory
    array of 4 KB blocks behind a latency model (seek distance + rotational
    delay + media transfer), charged to the virtual clock.  Sequential
    access to adjacent blocks skips the seek, which is enough to give the
    disk layer's allocation policy observable consequences. *)

(** Block size in bytes (4096, equal to the VM page size). *)
val block_size : int

type t

type stats = { reads : int; writes : int; seeks : int }

(** [create ~blocks ()] makes a zero-filled device of [blocks] blocks.
    [label] defaults to ["disk0"]. *)
val create : ?label:string -> blocks:int -> unit -> t

val label : t -> string
val block_count : t -> int

(** [read t n] returns a copy of block [n].  Raises [Invalid_argument] on
    out-of-range indices.  Consults the armed {!Sp_fault} plan at point
    ["disk.read"] (label = the disk's label): injected faults surface as
    [Sp_core.Fserr.Io_error] or [Sp_fault.Crash]; a [Bitrot] fault flips
    one bit of the stored block (persistently) and returns success. *)
val read : t -> int -> bytes

(** {2 Block sums}

    The device keeps the 32-bit FNV-1a fold ({!Sp_dir.Hash.fold}) of each
    stored block, so a verifier compares a checksum entry against the
    device's sum instead of folding a 4 KiB copy.  A block is folded at
    most once per content.  Every change to the stored bytes forgets the
    sum: a stored write (a misdirected write forgets its landing block's),
    a torn write, and bit rot on the write or the read path.  A lost write
    changes nothing, so the old bytes keep their old sum. *)

(** [sum t n] is the fold of block [n]'s stored bytes, folding them on
    first use; a never-written block gives the zero block's sum.  It
    charges nothing and consults no fault.  Taken right after {!read}
    returns, with no suspension point between, it is the sum of the copy
    [read] returned. *)
val sum : t -> int -> int

(** [read_sum t n] is a {!read} (same fault plan, charge and counters)
    that returns {!sum} instead of a copy: for offline verifiers that
    only compare sums. *)
val read_sum : t -> int -> int

(** [adopt_sum t n data sum] offers [sum], the caller's fold of the full
    block [data], as block [n]'s sum.  The device adopts it only when its
    sum is unknown and the stored bytes equal [data] ([Bytes.equal]), so
    an adopted sum rests on equal bytes folding equally and on nothing
    else: it is sound whatever fault the write met, and even if [data]
    changed after the write.  Call it after the write returns. *)
val adopt_sum : t -> int -> bytes -> int -> unit

(** [write t n data] stores [data] (at most one block; shorter data is
    zero-padded) into block [n], writing each byte of the block once.
    All-zero [data] written to a never-written block leaves it
    unmaterialised (found by a word-wide scan), so it still reads as
    zeros and costs no host memory.  Consults {!Sp_fault} at ["disk.write"]:
    besides [Io_error]/[Crash], a torn-write fault persists only a prefix
    of [data] and leaves the tail of the previous block contents in
    place; [Bitrot] stores the data with one bit flipped;
    [Misdirected_write] stores it at some other block, leaving [n]
    untouched; [Lost_write] acks (and charges) without storing anything.
    The last three report success — only checksums can tell. *)
val write : t -> int -> bytes -> unit

(** [write_vec ?check t [(n, data); ...]] writes the blocks as one
    elevator request: under a scheduler run the device is acquired once
    for the whole extent, so adjacent blocks pay only the per-block
    transfer and no concurrent request can move the head mid-extent.
    [check] (default no-op) runs before every block — callers pass their
    incarnation fence so a fiber whose mount died mid-extent stops
    instead of finishing the vector.  {!Sp_fault} is consulted per block
    at ["disk.write"], exactly as for N separate {!write}s, so
    crash-sweep injection points are preserved. *)
val write_vec : ?check:(unit -> unit) -> t -> (int * bytes) list -> unit

val stats : t -> stats

val reset_stats : t -> unit
