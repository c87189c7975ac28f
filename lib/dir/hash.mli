(** Name hashing for indexed directories, and the FNV-1a fold the SFS
    checksums share. *)

(** FNV-1a offset basis: the state [fold] starts from. *)
val basis : int

(** [fold h b ~off ~len ~pad] continues 32-bit FNV-1a from state [h] over
    [len] bytes of [b] starting at [off], then over [pad] zero bytes, and
    returns the state masked to 32 bits.  Allocates nothing.  Raises
    [Invalid_argument] unless [[off, off + len)] lies within [b].

    A zero byte folds as one multiply by the FNV prime, so the range's
    trailing zeros and the [pad] zeros after them, [k] bytes in all, fold
    as one multiply by the prime to the [k]th power (mod 2{^32}): the
    byte loop runs only up to the range's last nonzero byte, and an
    all-zero range costs a word-wide scan and a few multiplies. *)
val fold : int -> bytes -> off:int -> len:int -> pad:int -> int

(** [zero_tail b] is the number of zero bytes that end [b] (its length
    when [b] is all zeros), scanned eight bytes at a time from the end. *)
val zero_tail : bytes -> int

(** 32-bit FNV-1a of the name. *)
val fnv1a : string -> int

(** [bucket name ~buckets] maps a name to its bucket in [0, buckets). *)
val bucket : string -> buckets:int -> int
