(** File attributes.

    The stackable attribute interface ({!Vm_types.fs_cache} /
    {!Vm_types.fs_pager}) caches and keeps coherent "the access and modified
    times and file length" (paper §4.3).  Times are virtual-clock
    nanoseconds. *)

type kind = Regular | Directory

type t = {
  kind : kind;
  len : int;  (** file length in bytes *)
  atime : int;  (** last access, virtual ns *)
  mtime : int;  (** last data modification, virtual ns *)
  ctime : int;  (** attribute change time, virtual ns *)
  nlink : int;  (** number of name-space links *)
}

(** Fresh attributes stamped with the current virtual time. *)
val fresh : kind -> t

val touch_atime : t -> t
val touch_mtime : t -> t
val with_len : t -> int -> t
val equal : t -> t -> bool
