(** Off-line consistency checker for the SFS on-disk format.

    Reads the raw device (no mutation) and cross-checks the directory
    graph, the inode table and the allocation bitmaps, UFS-fsck style.
    Run it against a synced volume: in-memory caches of a live mount are
    invisible to it. *)

type problem =
  | Unreachable_inode of int
      (** allocated in the inode bitmap but not reachable from the root *)
  | Free_inode_referenced of int * string
      (** a directory entry names an inode the bitmap says is free *)
  | Bad_kind of int * string  (** entry/inode kind disagree *)
  | Block_out_of_range of int * int  (** (ino, block) pointer outside the data area *)
  | Block_double_use of int  (** block referenced by two owners *)
  | Block_not_allocated of int  (** referenced block marked free *)
  | Block_leak of int  (** allocated block referenced by nobody *)
  | Bad_nlink of int * int * int  (** (ino, expected, stored) *)
  | Checksum_mismatch of int
      (** block contents do not match the checksum region *)
  | Dir_index of int * string
      (** (ino, defect) — the directory's hash index is damaged:
          dangling slots, entries hashed into the wrong bucket,
          unreachable entries, slots with a damaged name length or a
          lying header count *)

val pp_problem : Format.formatter -> problem -> unit

(** ["first problem (+N more)"] for a non-empty list, [None] for []. *)
val summary : problem list -> string option

(** Run the check.  Returns [] for a consistent volume.  With
    [~verify_checksums:true] every in-use covered block (metadata plus
    referenced data blocks) is also hashed and compared against the
    checksum region, reporting {!Checksum_mismatch} — this is how torn or
    silently corrupted writes are positively detected even when the
    directory graph still parses.  No-op on volumes formatted without
    checksums. *)
val check : ?verify_checksums:bool -> Sp_blockdev.Disk.t -> problem list
