(** Self-contained LZSS compressor used by COMPFS.

    Classic byte-oriented LZSS: tokens are grouped eight per flag byte; a
    literal token is one byte, a match token packs a 12-bit backward
    distance and a 4-bit length (3–18 bytes).  Input that does not shrink
    is stored raw, so [compress] never expands by more than the 5-byte
    header plus one byte.

    Deterministic and dependency-free; the chunk size COMPFS feeds it is
    one VM page. *)

(** [compress data] returns the encoded form (including a header recording
    the original length and encoding kind).  The output is on-disk format:
    it is byte-identical to the original list-chain compressor kept in
    [test/lz_reference.ml].  The match finder works in scratch arrays
    shared by every call, so [compress] allocates only its result; that is
    safe under [Sp_sched] because it never suspends. *)
val compress : bytes -> bytes

(** [compress_sub data ~pos ~len] is [compress (Bytes.sub data pos len)]
    without the copy: byte-identical output, and it too allocates only
    its result.  Raises [Invalid_argument] when the range is not inside
    [data]. *)
val compress_sub : bytes -> pos:int -> len:int -> bytes

(** [decompress data] inverts {!compress}.  Raises [Invalid_argument] on
    a corrupt header or truncated stream, and before allocating when the
    header claims more bytes than the stream could encode (9 per input
    byte). *)
val decompress : bytes -> bytes

(** Simulated CPU work units (≈ bytes touched) for compressing or
    decompressing [n] bytes — charged by COMPFS to the virtual clock. *)
val work_units : int -> int
