(** A simple storage pager.

    Provides only the plain pager-object functionality over a growable
    in-memory backing store — the kind of pager §4.3 has in mind when a
    file system's narrow to [fs_pager] fails.  Used by anonymous memory,
    tests, and examples. *)

type t

val create : ?node:string -> label:string -> unit -> t

(** The memory object to hand to cache managers; binds go through the
    standard channel registry. *)
val memory_object : t -> Vm_types.memory_object

(** Read the backing store directly (no doors, no cache — test backdoor). *)
val peek : t -> pos:int -> len:int -> bytes

(** Write the backing store directly (test backdoor). *)
val poke : t -> pos:int -> bytes -> unit

(** Channels currently established with cache managers. *)
val channels : t -> Pager_lib.channel list
