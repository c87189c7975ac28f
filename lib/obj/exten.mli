(** Interface narrowing.

    Spring interfaces support subtype queries: a client holding a
    [pager_object] may attempt to narrow it to an [fs_pager]; if the narrow
    fails the client assumes it is talking to a simple storage pager (paper
    §4.3).  We model this with an extensible variant: each interface record
    carries a list of extensions, and [narrow] scans for the one a caller
    knows how to project. *)

type t = ..

(** [narrow extens project] returns the first extension accepted by
    [project], if any. *)
val narrow : t list -> (t -> 'a option) -> 'a option
