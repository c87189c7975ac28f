(** The SFS disk layer.

    Implements an on-disk UFS-compatible-in-spirit file system over a
    simulated block device (paper §6.2, Figure 10).  It is a base layer: it
    builds directly on a storage device and cannot be stacked on another
    file system.  It does {e not} implement a coherency algorithm — the
    coherency layer is stacked on top of it — and it does not cache file
    data; its only private state is the i-node cache (plus the allocation
    bitmaps), so open and stat are served without disk I/O while reads and
    writes reach the device.

    Files are exported with the full memory-object/pager contract: upper
    cache managers bind to a file's memory object and receive a pager
    backed by the device, with the [fs_pager] attribute subclass available
    by narrowing. *)

(** Format the device with an empty file system (root directory only).
    With [~journal:true] a write-ahead journal area (see {!Journal}) is
    reserved between the inode table and the data region; a subsequent
    {!mount} then buffers writes and commits them atomically on sync, so
    a crash at any point recovers to the last synced state.

    With [~checksums:true] (the default) a per-block checksum region (see
    {!Csum}) is reserved as well: every mounted read is verified, raising
    [Fserr.Checksum_error] on silent corruption, and every write updates
    the region — through the journal when there is one, so crash
    atomicity covers the checksums too.

    [inodes] overrides the default inode-table sizing (see
    {!Layout.compute}) — a million-file volume needs more inodes than the
    one-per-four-blocks ratio provides without paying for a
    proportionally huge device. *)
val mkfs :
  ?journal:bool -> ?checksums:bool -> ?inodes:int -> Sp_blockdev.Disk.t -> unit

(** [mount ~name disk] mounts a formatted device and returns the layer as
    a stackable file system.  [node] (default ["local"]) places the
    serving domain; [domain] overrides it entirely (used to co-locate the
    disk layer with another layer for the same-domain experiments).
    Raises {!Sp_core.Fserr.Io_error} on an unformatted device.

    Mounting a journaled volume replays any sealed-but-unapplied journal
    transaction first: mounting is crash recovery.

    [dir_index] (default [true]) controls whether flat directories
    upgrade to the hashed index when they outgrow
    {!Sp_dir.Index.upgrade_threshold}; [false] keeps them flat — the
    baseline the namespace benchmark measures linear lookup against.
    Directories already indexed on disk stay indexed either way.

    [group_commit] (default [true]) controls sync coalescing under
    concurrent scheduler tasks: the first sync elects itself leader,
    waits the model's [commit_delay_ns] (idle), then runs one commit
    over the union dirty set; syncs arriving before the seal park and
    return when that commit lands — a sync never returns before a
    sealed commit covers its writes.  A clean volume's sync returns
    immediately, charging no device I/O.  [false] restores
    one-commit-per-sync (the equivalence-test / A-B baseline). *)
val mount :
  ?node:string -> ?domain:Sp_obj.Sdomain.t -> ?dir_index:bool ->
  ?group_commit:bool -> name:string ->
  Sp_blockdev.Disk.t -> Sp_core.Stackable.t

(** Replay the journal of an unmounted device without mounting it;
    returns the number of blocks copied home (0 on clean or unjournaled
    volumes).  Raises {!Sp_core.Fserr.Io_error} on an unformatted
    device. *)
val recover : Sp_blockdev.Disk.t -> int

(** [creator ~node ~get_disk] packages [mkfs]+[mount] as a stackable-fs
    creator: [cr_create ~name] formats (if needed) and mounts
    [get_disk name]. *)
val creator :
  ?node:string -> ?journal:bool -> ?checksums:bool ->
  get_disk:(string -> Sp_blockdev.Disk.t) ->
  unit -> Sp_core.Stackable.creator

(** {1 Introspection (tests, tools)} *)

(** Free data blocks remaining. *)
val free_blocks : Sp_core.Stackable.t -> int

(** Free inodes remaining. *)
val free_inodes : Sp_core.Stackable.t -> int

(** Number of cached inodes (the layer's "small state"). *)
val cached_inodes : Sp_core.Stackable.t -> int

(** Live pager–cache channels served by this layer (Figure 2's count). *)
val channel_count : Sp_core.Stackable.t -> int

(** Whether the mounted volume has a journal. *)
val journaled : Sp_core.Stackable.t -> bool

(** Journal counters ([None] on unjournaled volumes). *)
val journal_stats : Sp_core.Stackable.t -> Journal.stats option

(** Buffered dirty blocks not yet committed (0 on unjournaled volumes,
    where writes reach the device immediately). *)
val journal_pending : Sp_core.Stackable.t -> int
