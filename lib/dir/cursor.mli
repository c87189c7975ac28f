(** Streaming directory reads: bounded batches behind an integer cookie.

    Cookie 0 starts a scan; a batch returns the names read plus the
    cookie to resume from, or [None] when the directory is exhausted.
    Cursors are weakly consistent (POSIX readdir semantics): entries
    created or removed between batches may or may not be observed. *)

type batch = string list * int option

(** One readdir implementation. *)
type source = cookie:int -> limit:int -> batch

(** Cursor view over a materialised listing; the cookie indexes the
    list.  Raises [Invalid_argument] when [limit <= 0]. *)
val of_list : string list -> cookie:int -> limit:int -> batch

(** Filtering view over a source.  Filtered batches may be shorter than
    the limit (even empty) while more remain: consumers must key
    termination on the cookie, not batch size. *)
val filter : (string -> bool) -> source -> source

(** Drain a cursor to a full listing (the [listdir] compatibility
    path). *)
val drain : ?batch:int -> source -> string list

(** Fold over all names in bounded batches. *)
val fold : ?batch:int -> source -> ('a -> string -> 'a) -> 'a -> 'a
