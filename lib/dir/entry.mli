(** Fixed-size 64-byte directory entry codec, shared by the flat
    directory format, the hash index ({!Index}) and the offline
    checkers.

    No reader looks outside the 64 bytes of the slot it was given.  A
    name length byte above the 58-byte maximum cannot be written by {!encode},
    so it can only come from damage: such a slot is {!damaged}, {!decode}
    returns [None] for it, it is not {!is_free}, and {!name_equal}
    matches nothing in it. *)

val entry_size : int

type t = { ino : int; is_dir : bool; name : string }

(** Raises [Invalid_argument] on names that cannot be stored: empty,
    longer than the 58-byte maximum, or containing ['/'] or NUL. *)
val check_name : string -> unit

val encode : t -> bytes

(** [decode b off] reads the entry at byte offset [off]; [None] for a
    free slot (name length byte = 0) and for a {!damaged} one. *)
val decode : bytes -> int -> t option

(** [is_live b off]: the slot at [off] holds an entry ({!decode} gives
    [Some]).  Allocates nothing. *)
val is_live : bytes -> int -> bool

(** [decode_live b off] is the entry {!decode} gives for a slot that
    {!is_live}, without the option. *)
val decode_live : bytes -> int -> t

(** [live_name b off] is the name alone of a slot that {!is_live}. *)
val live_name : bytes -> int -> string

(** [is_free b off]: the slot at [off] is free (name length byte = 0).
    Allocates nothing. *)
val is_free : bytes -> int -> bool

(** [damaged b off]: the slot's name length byte exceeds the 58-byte maximum. *)
val damaged : bytes -> int -> bool

(** [name_equal b off name]: the slot at [off] holds an entry named
    [name], compared in place — nothing is decoded or allocated. *)
val name_equal : bytes -> int -> string -> bool

(** An all-zero slot (what removal writes). *)
val free_slot : bytes
