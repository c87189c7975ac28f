(** Name hashing for indexed directories, and the FNV-1a fold the SFS
    checksums share. *)

(** FNV-1a offset basis: the state [fold] starts from. *)
val basis : int

(** [fold h b ~off ~len ~pad] continues 32-bit FNV-1a from state [h] over
    [len] bytes of [b] starting at [off], then over [pad] zero bytes, and
    returns the state masked to 32 bits.  Allocates nothing.  Raises
    [Invalid_argument] unless [[off, off + len)] lies within [b]. *)
val fold : int -> bytes -> off:int -> len:int -> pad:int -> int

(** 32-bit FNV-1a of the name. *)
val fnv1a : string -> int

(** [bucket name ~buckets] maps a name to its bucket in [0, buckets). *)
val bucket : string -> buckets:int -> int
