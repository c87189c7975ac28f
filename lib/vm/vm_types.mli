(** The stackable pager architecture: cache, pager and memory objects.

    These are the interfaces of Appendices A and B of the paper, plus the
    [fs_cache] / [fs_pager] attribute subclasses of §4.3 and the two-way
    channel-establishment protocol of §3.3.2:

    - a {e cache object} is implemented by a cache manager (the VMM, or a
      file-system layer acting as a cache manager) and invoked by pagers to
      perform coherency actions;
    - a {e pager object} is implemented by a pager (a file-system layer or a
      plain storage pager) and invoked by cache managers to move data;
    - a {e memory object} is an abstraction of memory that can be mapped; it
      has no paging operations — its [bind] operation locates or creates a
      pager–cache channel and returns [cache_rights] that let the caller
      unify equivalent memory objects (the separation Spring contrasts with
      Mach in Table 1).

    Invoke operations only through the call helpers in this module: they
    perform the door invocation (charging local or cross-domain cost) and
    maintain the event counters used by tests and benchmarks.

    {b Page buffers have one owner.}  Data crosses this interface without
    defensive copies, under two rules (after Druschel and Peterson's
    fbufs, SOSP 1993: a buffer that is immutable once handed over can
    cross protection domains without a copy):

    - {e A page-in result belongs to the caller.}  [p_page_in] returns a
      buffer nobody else holds or will touch: a fresh one, or one the
      pager gives up.  The VMM keeps a one-page result as the page itself.
    - {e A writeback payload is lent for the duration of the call.}  The
      [bytes] of [p_sync], [p_sync_v], [p_page_out] and [p_write_out]
      (and the extents a cache object's [c_flush_back], [c_deny_writes]
      and [c_write_back] return) may be the caller's own page.  The
      receiver reads it, never writes it, and copies whatever it keeps
      once the call returns ([Disk_layer]'s journaled writes, [Disk]'s
      store and the RAM pager's blit already do).  In exchange the lender
      never changes a lent buffer: the VMM copies a lent page before its
      next mutation, so a payload still reads as it did when it was
      handed over, even to a receiver that suspends before reading it. *)

(** Access mode of cached data. *)
type access = Read_only | Read_write

(** A modified range returned to a pager by a coherency action. *)
type extent = { ext_offset : int; ext_data : bytes }

type cache_object = {
  c_domain : Sp_obj.Sdomain.t;
  c_label : string;
  c_flush_back : offset:int -> size:int -> extent list;
      (** remove data from the cache, returning modified blocks (the
          returned extents, here and below, are lent: read them, copy
          what you keep) *)
  c_deny_writes : offset:int -> size:int -> extent list;
      (** downgrade read-write blocks to read-only, returning modified blocks *)
  c_write_back : offset:int -> size:int -> extent list;
      (** return modified blocks; data retained in the same mode *)
  c_delete_range : offset:int -> size:int -> unit;
      (** remove data from the cache; nothing returned *)
  c_zero_fill : offset:int -> size:int -> unit;
      (** declare a range zero-filled *)
  c_populate : offset:int -> access:access -> bytes -> unit;
      (** introduce data into the cache *)
  c_destroy : unit -> unit;
  c_exten : Sp_obj.Exten.t list;
}

type pager_object = {
  p_domain : Sp_obj.Sdomain.t;
  p_label : string;
  p_page_in : offset:int -> size:int -> access:access -> bytes;
      (** bring data from the pager in the requested mode; the result
          belongs to the caller *)
  p_page_out : offset:int -> bytes -> unit;
      (** write data to the pager; caller retains nothing.  The payload
          is lent for the call: copy what you keep. *)
  p_write_out : offset:int -> bytes -> unit;
      (** write data to the pager; caller retains it read-only (payload
          lent, as for [p_page_out]) *)
  p_sync : offset:int -> bytes -> unit;
      (** write data to the pager; caller retains its mode (payload
          lent, as for [p_page_out]) *)
  p_sync_v : extent list -> unit;
      (** vectored [p_sync]: a batch of coalesced contiguous dirty runs
          pushed in one crossing (clustered writeback); each extent has
          [p_sync] semantics, its data lent for the call.  Pagers with no
          smarter handling use {!sync_each}. *)
  p_done_with : unit -> unit;
      (** the cache manager closes its end of the channel *)
  p_exten : Sp_obj.Exten.t list;
}

(** [sync_each sync extents] applies a per-extent push function to each
    extent in order — the default [p_sync_v] implementation. *)
val sync_each : (offset:int -> bytes -> unit) -> extent list -> unit

(** Total payload bytes across a batch of extents. *)
val extents_bytes : extent list -> int

(** Token identifying a pager–cache channel; equivalent memory objects yield
    rights with equal [cr_key], letting cache managers share cached pages. *)
type cache_rights = { cr_key : string; cr_channel_id : int }

(** The identity a cache manager presents when binding.  When the pager sets
    up a new channel it calls [cm_connect] with its pager object; the
    manager answers with the cache object of its end. *)
type cache_manager = {
  cm_id : string;
  cm_domain : Sp_obj.Sdomain.t;
  cm_connect : key:string -> pager_object -> cache_object;
}

type memory_object = {
  m_domain : Sp_obj.Sdomain.t;
  m_label : string;
  m_bind : cache_manager -> access -> cache_rights;
  m_get_length : unit -> int;
  m_set_length : int -> unit;
}

(** {1 File-attribute subclasses (paper §4.3)} *)

(** Operations added by [fs_pager], the file-system subclass of a pager
    object. *)
type fs_pager_ops = {
  fp_get_attr : unit -> Attr.t;  (** fetch authoritative attributes *)
  fp_set_attr : Attr.t -> unit;  (** explicit attribute update *)
  fp_attr_sync : Attr.t -> unit;  (** write back attributes cached upstream *)
}

(** Operations added by [fs_cache], the file-system subclass of a cache
    object, letting the pager engage the manager in attribute coherency. *)
type fs_cache_ops = {
  fc_invalidate_attr : unit -> unit;
  fc_write_back_attr : unit -> Attr.t option;
      (** surrender dirty cached attributes, if any *)
  fc_populate_attr : Attr.t -> unit;
}

type Sp_obj.Exten.t += Fs_pager of fs_pager_ops | Fs_cache of fs_cache_ops

(** Narrow a pager object to its file-system subclass. *)
val narrow_fs_pager : pager_object -> fs_pager_ops option

(** Narrow a cache object to its file-system subclass. *)
val narrow_fs_cache : cache_object -> fs_cache_ops option

(** {1 Call helpers}

    Each performs a door invocation on the serving domain and updates
    {!Sp_sim.Metrics}. *)

val flush_back : cache_object -> offset:int -> size:int -> extent list
val deny_writes : cache_object -> offset:int -> size:int -> extent list
val write_back : cache_object -> offset:int -> size:int -> extent list
val delete_range : cache_object -> offset:int -> size:int -> unit
val zero_fill : cache_object -> offset:int -> size:int -> unit
val populate : cache_object -> offset:int -> access:access -> bytes -> unit
val destroy_cache : cache_object -> unit
val page_in : pager_object -> offset:int -> size:int -> access:access -> bytes
val page_out : pager_object -> offset:int -> bytes -> unit
val write_out : pager_object -> offset:int -> bytes -> unit
val sync : pager_object -> offset:int -> bytes -> unit

(** Push a batch of coalesced dirty runs in a single vectored crossing:
    one door call, one payload transfer, one [page_outs] count for the
    whole batch.  No-op on the empty list. *)
val sync_v : pager_object -> extent list -> unit

val done_with : pager_object -> unit
val bind : memory_object -> cache_manager -> access -> cache_rights
val get_length : memory_object -> int
val set_length : memory_object -> int -> unit

(** Attribute helpers; they charge the door of the given pager/cache
    object's domain, as the subclass operations travel on the same
    connection. *)

val fs_get_attr : pager_object -> fs_pager_ops -> Attr.t
val fs_set_attr : pager_object -> fs_pager_ops -> Attr.t -> unit
val fs_attr_sync : pager_object -> fs_pager_ops -> Attr.t -> unit
val fs_invalidate_attr : cache_object -> fs_cache_ops -> unit
val fs_write_back_attr : cache_object -> fs_cache_ops -> Attr.t option
val fs_populate_attr : cache_object -> fs_cache_ops -> Attr.t -> unit

(** {1 Page geometry} *)

(** System page/block size in bytes (4096). *)
val page_size : int

(** [page_index off] is the page number containing byte [off]. *)
val page_index : int -> int

(** [pages_covering ~offset ~size] enumerates the page indices that
    intersect the byte range. *)
val pages_covering : offset:int -> size:int -> int list
