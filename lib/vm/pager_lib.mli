(** Channel registry for pagers.

    Implements the bind handshake of paper §3.3.2: "when a pager receives a
    bind operation, it must determine if there is already a pager–cache
    object connection for the memory object at the given [cache manager].
    If there is no connection, the pager contacts the [manager], and the two
    exchange pager and cache objects."  Every file-system layer embeds one
    registry.

    The registry indexes channels by id and by key, so every per-op
    operation costs O(1) or O(channels of one key), never O(all
    channels); only {!channels} and {!destroy_all} walk everything.
    Channel ids are assigned in bind order, and every list this module
    returns is in ascending id order — deterministic, so coherency
    actions that range over a key's channels run in a fixed order. *)

type channel = {
  ch_id : int;
  ch_key : string;  (** identity of the cached memory object *)
  ch_manager_id : string;
  ch_manager_domain : Sp_obj.Sdomain.t;
  ch_pager : Vm_types.pager_object;  (** the pager's end *)
  ch_cache : Vm_types.cache_object;  (** the manager's end *)
}

type t

val create : unit -> t

(** [bind t ~key ~make_pager manager access] finds the channel for
    [(manager, key)] or establishes one: [make_pager ~id] builds the
    pager's end (the pre-assigned channel id lets pagers key per-channel
    coherency state), the manager's [cm_connect] is invoked (a door call
    into the manager's domain) to obtain the cache object, and the channel
    is recorded.  Returns the cache rights to hand back from the memory
    object's bind. *)
val bind :
  t ->
  key:string ->
  make_pager:(id:int -> Vm_types.pager_object) ->
  Vm_types.cache_manager ->
  Vm_types.cache_rights

(** All live channels caching [key], in ascending id (bind) order — the
    set a coherency protocol ranges over. *)
val channels_for_key : t -> key:string -> channel list

(** All live channels, in ascending id order. *)
val channels : t -> channel list

(** [find t ~id] returns the channel with that id, if live. *)
val find : t -> id:int -> channel option

(** Forget a channel (after [done_with] or cache destruction). *)
val remove : t -> int -> unit

(** [live_cache t ~id] is channel [id]'s cache object, {e unless} the
    domain serving it has fail-stopped — then the channel is a leftover
    of a pre-crash incarnation: it is dropped (traced as a
    [pager.fence] instant) and [None] is returned, so pagers never call
    back into a dead upper layer.  This is the pager-side half of epoch
    fencing; the manager-side half is the VMM's reconcile on
    re-connect. *)
val live_cache : t -> id:int -> Vm_types.cache_object option

(** [channels_for_key] restricted to channels whose cache domain is
    alive; dead ones are fenced (dropped) as in {!live_cache}. *)
val live_channels_for_key : t -> key:string -> channel list

(** Tear down every channel caching [key]: invoke [destroy_cache] on each
    manager's cache object (Appendix A) and forget the channel.  Pagers
    call this when the backing object is deleted, so a later object that
    reuses the identity cannot alias stale caches.  Destroys run in
    ascending id order. *)
val destroy_key : t -> key:string -> unit

(** Tear down every channel of every key — the drop_caches analog of
    {!destroy_key}.  The destroy cascades manager-side, so per-file
    state captured by the cache objects is released too.  Destroys run
    in ascending id order. *)
val destroy_all : t -> unit

(** Number of live channels (Figure 2's observable). *)
val channel_count : t -> int
