(** The single-writer/multiple-readers coherence protocol (paper §4.2.1,
    §6.2), the one implementation every layer that exports pages runs.

    "Each pager is responsible for keeping its own files coherent"
    (§4.2.1): the coherency layer, COMPFS, CRYPTFS, MIRRORFS, UNIONFS and
    INTEGRITYFS each keep one [t] per exported file.  It records, for every
    block, which pager–cache channels hold it and in which mode, and
    keeps the invariant: at most one read-write holder, and a read-write
    holder is the only holder.  {!export_file} builds a layer's whole
    exported file around it; the layer supplies how bytes are produced
    for a grant and how pushed or revoked extents are stored
    (compressing, encrypting, replicating... as it pleases), and its own
    attribute, length and sync operations. *)

type t

val create : unit -> t

(** [granting t ~access f] runs [f] holding the protocol's
    readers/writer lock: read-only grants overlap, read-write grants and
    pushes are exclusive.  Reentrant per task; outside an [Sp_sched] run
    this is just [f ()].  {!export_file}'s sections and {!sweep} take it
    themselves; a layer takes it to write back outside them. *)
val granting : t -> access:Sp_vm.Vm_types.access -> (unit -> 'a) -> 'a

(** Retention of a pushed extent: the caller keeps nothing ([page_out]),
    keeps it read-only ([write_out]), or keeps its mode ([sync]). *)
type retain = [ `Drop | `Read_only | `Same ]

(** A wrapper run around each whole grant or push section, outside the
    protocol's lock (a layer lock that must be taken first). *)
type around = { around : 'a. (unit -> 'a) -> 'a }

(** [export_file ~vmm ~domain ~channels ~key ~produce ~store ~fs_pager
    ~stat ~length ~set_attr ~grow ~truncate ~sync t] is the exported file
    of a layer that exports pages, kept coherent by [t].  Its [f_id], the
    label of its memory object and of every upper pager, and the key of
    its channels in [channels] are all [key].

    Its memory object's bind is {!Sp_vm.Pager_lib.bind}, which makes the
    pager of upper channel [id]:

    - [p_page_in] runs, under {!granting}, the revokes (flush every other
      holder for a read-write grant, deny writes to a read-write holder
      for a read-only one; revoked dirty extents go to
      [store ~retain:`Read_only]), then [produce], then records [id] as a
      holder;
    - [p_page_out], [p_write_out] and [p_sync] run, under the write side,
      [store] with retention [`Drop], [`Read_only] or [`Same], then update
      [id]'s holder state to match;
    - [p_sync_v] is [sync_v] if given, else {!Sp_vm.Vm_types.sync_each}
      of [p_sync];
    - [p_done_with] forgets [id] and removes it from [channels];
    - its [Fs_pager] extension is [fs_pager ~id].

    [around], if given, wraps each grant and push section.

    Its read and write map the memory object through [vmm]
    ({!Sp_core.File.mapped_ops}): [stat] gives the length a read clips
    to, and each non-empty write ends with [grow n], [n] the larger of
    the old length and the write's end.  [stat],
    [set_attr] and [truncate] are the file's own operations; [length] and
    [truncate] are also its memory object's.  [f_sync] syncs the mapping,
    then runs [sync]. *)
val export_file :
  ?around:around ->
  ?sync_v:(Sp_vm.Vm_types.extent list -> unit) ->
  vmm:Sp_vm.Vmm.t ->
  domain:Sp_obj.Sdomain.t ->
  channels:Sp_vm.Pager_lib.t ->
  key:string ->
  produce:(offset:int -> size:int -> access:Sp_vm.Vm_types.access -> bytes) ->
  store:(retain:retain -> offset:int -> bytes -> unit) ->
  fs_pager:(id:int -> Sp_vm.Vm_types.fs_pager_ops) ->
  stat:(unit -> Sp_vm.Attr.t) ->
  length:(unit -> int) ->
  set_attr:(Sp_vm.Attr.t -> unit) ->
  grow:(int -> unit) ->
  truncate:(int -> unit) ->
  sync:(unit -> unit) ->
  t ->
  Sp_core.File.t

(** Collect dirty data from every holder under the write side
    ([`Write_back] retains the caches, [`Flush] empties them), handing
    each extent to [write_down] as it arrives. *)
val sweep :
  t ->
  channels:Sp_vm.Pager_lib.t ->
  [ `Write_back | `Flush ] ->
  write_down:(Sp_vm.Vm_types.extent -> unit) ->
  unit

(** [forward t ~channels action ~offset ~size] applies a coherency action
    arriving from the layer below to every holder of the range and
    returns the dirty extents collected, in holder-walk order.  It takes
    no lock: the action arrives under the lower layer's own
    serialization, and taking the lock could deadlock against a task
    calling down. *)
val forward :
  t ->
  channels:Sp_vm.Pager_lib.t ->
  [ `Flush | `Deny | `Write_back | `Delete | `Zero ] ->
  offset:int ->
  size:int ->
  Sp_vm.Vm_types.extent list

(** Forget all holders of blocks with index >= [block] (after truncate). *)
val drop_blocks_from : t -> block:int -> unit

(** [shrink t ~channels ~key ~old ~len ~write_down] discards the cached
    pages a cut from [old] to [len] bytes leaves stale, when [len < old]:
    each live channel of [key] writes back [\[0, cut)] through
    [write_down] (cut = [len] rounded up to a page), zero-fills the
    boundary page's tail and deletes the cut pages; then the cut blocks'
    holders are forgotten.  The layer cuts its store afterwards. *)
val shrink :
  t ->
  channels:Sp_vm.Pager_lib.t ->
  key:string ->
  old:int ->
  len:int ->
  write_down:(Sp_vm.Vm_types.extent -> unit) ->
  unit

(** Forget everything (after the backing store changed under the layer). *)
val clear : t -> unit

(** The MRSW invariant over the tracked state. *)
val invariant_holds : t -> bool
