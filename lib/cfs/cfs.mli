(** CFS — the attribute-caching file system (§6.2).

    CFS "interpose[s] on remote files when they are passed to the local
    machine".  For each interposed file it becomes a cache manager for the
    remote file by invoking [bind], caching attributes through the
    [fs_pager]/[fs_cache] operations (one {!Sp_vm.Attr_cache} per file,
    whose pager half is idle: CFS serves no upper managers); read/write
    requests are serviced by mapping the file into its address space,
    "thus utilizing the local VMM for caching the data".  Page-ins and
    page-outs from the local VMM go directly to the remote DFS (the bind
    is forwarded, CFS returning the remote pager–cache channel).

    CFS is optional: without it, every operation on a remote file goes to
    the remote DFS. *)

type t

val make : ?node:string -> vmm:Sp_vm.Vmm.t -> name:string -> unit -> t

(** Interpose on one remote file, returning the locally-served file.
    Idempotent per underlying file. *)
val interpose : t -> Sp_core.File.t -> Sp_core.File.t

(** Wrap a DFS import so that every file resolved through it is
    interposed — name-resolution-time interposition (§5) applied to the
    whole imported name space. *)
val wrap_import : t -> Sp_core.Stackable.t -> Sp_core.Stackable.t

(** Number of files currently holding a cached attribute copy. *)
val cached_attrs : t -> int
