(** Monolithic baseline file system (the SunOS 4.1.3 stand-in of Table 3).

    The same on-disk format as the SFS disk layer ({!Sp_sfs.Layout} &c.),
    but structured the way a monolithic UNIX kernel structures it: one
    "kernel" domain entered by a trap (not a cross-domain door), an
    integrated buffer cache in front of the device, i-node and name
    caches, and no object indirection between layers.  This reproduces the
    structural reason the paper's Table 3 shows SunOS 2–7 times faster
    than the (untuned, stacked, microkernel) Spring SFS.

    The interface is deliberately the classic one — open/read/write/
    fstat — rather than the stackable file interface. *)

type t

type fd

(** Format and mount a device. *)
val mkfs_and_mount : ?label:string -> Sp_blockdev.Disk.t -> t

(** Mount an already-formatted device. *)
val mount : ?label:string -> Sp_blockdev.Disk.t -> t

val creat : t -> string -> fd
val openf : t -> string -> fd

(** [read t fd ~pos ~len] — positional read (no seek-pointer state). *)
val read : t -> fd -> pos:int -> len:int -> bytes

val write : t -> fd -> pos:int -> bytes -> int
val fstat : t -> fd -> Sp_vm.Attr.t
val mkdir : t -> string -> unit
val unlink : t -> string -> unit
val sync : t -> unit

(** Drop the buffer/name caches (cold-cache benchmark rows). *)
val drop_caches : t -> unit
