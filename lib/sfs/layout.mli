(** On-disk layout of the SFS disk layer.

    Block 0 holds the superblock; then the inode bitmap, the block bitmap,
    the inode table, and the data region.  All sizes derive from the device
    size at [mkfs] time, UFS-style (paper [14]). *)

(** Bytes per inode slot on disk. *)
val inode_size : int

(** Inodes per block. *)
val inodes_per_block : int

(** Direct block pointers per inode. *)
val n_direct : int

(** Block pointers held by one indirect block. *)
val ptrs_per_block : int

type t = {
  total_blocks : int;
  inode_count : int;
  inode_bitmap_start : int;  (** block index *)
  inode_bitmap_blocks : int;
  block_bitmap_start : int;
  block_bitmap_blocks : int;
  inode_table_start : int;
  inode_table_blocks : int;
  csum_start : int;  (** meaningless when [csum_blocks] is 0 *)
  csum_blocks : int;  (** checksum region size; 0 = no checksums *)
  journal_start : int;  (** meaningless when [journal_blocks] is 0 *)
  journal_blocks : int;  (** journal area size; 0 = unjournaled *)
  data_start : int;  (** first data block *)
}

(** Checksum-region entries (device blocks covered) per region block. *)
val csum_entries_per_block : int

(** Compute the layout for a device of [total_blocks] blocks, reserving
    [journal_blocks] (default 0, meaning no journal; otherwise >= 2:
    header + data slots) between the inode table and the data region,
    and, when [checksums] is true (default false), a checksum region (one
    4-byte checksum per device block) between the inode table and the
    journal.  [inodes] overrides the default one-inode-per-four-blocks
    sizing of the inode table (min 16).  Raises [Invalid_argument] if the
    device is too small to hold any data. *)
val compute :
  ?journal_blocks:int -> ?checksums:bool -> ?inodes:int -> total_blocks:int ->
  unit -> t

(** Serialise the superblock (includes a magic and the layout). *)
val encode_superblock : t -> bytes

(** Decode and validate a superblock, raising {!Sp_core.Fserr.Io_error} on
    bad magic or version. *)
val decode_superblock : bytes -> t
