(** Directory entries.

    A directory's data is an array of fixed-size 64-byte entries: inode
    number, kind tag, and a name of up to 58 bytes.  Free slots
    have inode number 0 *and* an empty name.  The codec itself lives in
    {!Sp_dir.Entry}, shared with the hash index and the offline
    checkers; this module aliases it so disk-layer code keeps saying
    [Dirent]. *)

(** Entry size in bytes. *)
val entry_size : int

type t = Sp_dir.Entry.t = { ino : int; is_dir : bool; name : string }

(** [encode e] is the 64-byte on-disk form.  Raises [Invalid_argument] if
    the name is empty, too long, or contains ['/'] or ['\000']. *)
val encode : t -> bytes

(** [decode b off] reads the entry at byte [off]; [None] for a free slot. *)
val decode : bytes -> int -> t option

(** The all-zero free slot. *)
val free_slot : bytes

(** Validate a file name (used by create/mkdir before touching the disk). *)
val check_name : string -> unit
