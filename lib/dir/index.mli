(** On-disk hash index for large directories (ext2-htree / UFS dirhash
    analog) over 64-byte {!Entry} slots.

    All block numbers are file-relative; the caller supplies block I/O,
    so the disk layer can route through its journalled device while
    fsck reads the raw disk with the same code.  File block 0 is the
    index root; its magic + flag bytes cannot occur in a flat directory
    block, so {!is_index_root} on block 0 is the format test.  Leaf
    blocks carry a trailer that a flat decoder reads as a free slot.

    Mutations patch the blocks they read in place, writing data blocks
    before the root and patching the root only after those writes
    return; {!build} shadow-writes
    a whole new index beyond the current extent and flips the root
    last, so a prefix of the writes (one torn batch) leaves the old
    index intact. *)

(** Entries per leaf block (63). *)
val entries_per_leaf : int

(** A flat directory upgrades to indexed past this many entries (128). *)
val upgrade_threshold : int

(** Block I/O the index runs on.  [read n] returns file block [n];
    [write n b] stores a full block, growing the file as needed.  A
    mutation patches the buffer [read] returned and then passes that
    same buffer to [write], so [read] must hand out the buffer the
    caller keeps for the block (a cache block, or a fresh copy) and
    [write] must accept it without copying being needed for
    correctness.  Queries never mutate what [read] returns. *)
type io = { read : int -> bytes; write : int -> bytes -> unit }

type header = {
  buckets : int;
  entries : int;  (** live entries *)
  nblocks : int;  (** index extent in file blocks; bounds every scan *)
}

(** Format test on a directory's block 0. *)
val is_index_root : bytes -> bool

(** [true] iff the block carries a leaf trailer. *)
val is_leaf : bytes -> bool

val read_header : io -> header

val lookup : io -> string -> Entry.t option

(** [add io e] inserts an entry the caller has checked is absent;
    splits the bucket's head leaf when full. *)
val add : io -> Entry.t -> unit

(** [remove io name] is [true] if the entry was present. *)
val remove : io -> string -> bool

(** [fold_page io f ~cookie ~limit] is one bounded batch in file-block
    order: [f leaf off] of each live slot, read straight from the leaf
    ([Entry.live_name] for names alone, [Entry.decode_live] for whole
    entries).  The cookie encodes the resume position ([None] =
    exhausted).  Raises [Invalid_argument] when [limit <= 0]. *)
val fold_page :
  io -> (bytes -> int -> 'a) -> cookie:int -> limit:int -> 'a list * int option

val iter : io -> (Entry.t -> unit) -> unit

(** Materialise every entry (tests and rebuilds only). *)
val entries : io -> Entry.t list

(** Bucket count a rebuild should target for [entries] entries. *)
val target_buckets : ?cap:int -> entries:int -> unit -> int

(** [true] when the index has outgrown its buckets (and is below
    [cap]). *)
val grow_due : ?cap:int -> header -> bool

(** [build io ~entries ~buckets ~start] writes a complete index,
    placing every block except the root at file blocks >= [start];
    returns the new extent.  Pass the old extent as [start] for a
    shadow rebuild. *)
val build : io -> entries:Entry.t list -> buckets:int -> start:int -> int

(** Offline index verification (fsck's dirindex category). *)
type check_report = {
  ck_dangling : int;
  ck_mismatch : int;
  ck_unreachable : int;
  ck_damaged : int;
      (** slots whose name length byte exceeds {!Entry.max_name} (only
          damage writes one; such a slot decodes to no entry) *)
  ck_badcount : bool;
}

val clean_report : check_report

val check : io -> check_report
