(** The coherency layer (paper §6.2–§6.3).

    A stackable file system implementing a per-block
    multiple-readers/single-writer coherency protocol over any underlying
    layer.  For each exported file it:

    - acts as a {e pager} toward upper cache managers (VMMs, or stacked
      file systems) through {!Mrsw}, keeping track of which channel holds
      which block in which mode and triggering [deny_writes]/[flush_back]
      before granting conflicting access;
    - acts as a {e cache manager} toward the underlying file (binding to
      its memory object), so coherency actions initiated below are
      forwarded to the upper caches — this is what makes coherent stacks
      composable out of non-coherent layers (§6.3);
    - caches file attributes in one {!Sp_vm.Attr_cache} per file: it
      uses the [fs_cache]/[fs_pager] subclass operations when the lower
      pager narrows to a file system, and recalls and invalidates the
      copies of upper managers that are file systems.

    The layer holds no page data of its own: its read/write operations map
    the exported file through the node VMM, so the VMM's unified page
    cache is the data cache — which is why "cached" operations make no
    calls to the lower layer (Table 2).

    A supervised restart makes a new instance; references to the old
    incarnation are fenced at the door ([Dead_domain]) and at the pager
    registry ([Pager_lib.live_cache]). *)

(** [make ~vmm ~name ()] creates an instance; stack it on exactly one
    underlying file system before use.  [domain] overrides the serving
    domain (used to co-locate layers for the same-domain experiments);
    [embedded] marks the instance as compiled into its lower layer (the
    "C++ library" alternative of §6.2) — it then skips the second
    per-open state charge, modelling a single combined open record. *)
val make :
  ?node:string ->
  ?domain:Sp_obj.Sdomain.t ->
  ?embedded:bool ->
  vmm:Sp_vm.Vmm.t ->
  name:string ->
  unit ->
  Sp_core.Stackable.t

(** Creator for [/fs_creators] (type ["coherency"]). *)
val creator : ?node:string -> vmm:Sp_vm.Vmm.t -> unit -> Sp_core.Stackable.creator

(** {1 Introspection} *)

(** Upper pager–cache channels served for a given exported file. *)
val channel_count : Sp_core.Stackable.t -> int

(** Check the MRSW invariant over every file's block state. *)
val invariant_holds : Sp_core.Stackable.t -> bool

(** Number of files with cached attributes. *)
val cached_attrs : Sp_core.Stackable.t -> int
