(** One file's cached attribute copy: the [fs_cache]/[fs_pager] protocol
    of paper §4.3, the one implementation every attribute-caching layer
    runs.

    The {e manager half} holds the copy and its dirty bit, the lower
    [fs_pager] found when the layer's channel to the lower file connects,
    and the [Fs_cache] extension the layer's cache object carries: fetch,
    update and sync-down all go through it.  A lower pager that does not
    narrow to [fs_pager] is reached through the [stat] and [store] the
    layer supplies instead.

    The {e pager half} serves upper cache managers, for a layer that has
    them (the coherency layer; CFS has none): before trusting its copy it
    recalls dirty copies from upper managers that are file systems, and
    when the copy changes it invalidates theirs.  Upper managers that do
    not narrow to [fs_cache] (VMMs) cost nothing. *)

(** One file's attribute cache; ['file] is the type of its lower file. *)
type 'file t

(** [create ?upper ~stat ~store file] is an empty cache over the lower
    file [file].  [stat] and [store] read and write its attributes when
    its pager does not narrow; [upper] is the channel registry and key
    under which the layer serves this file to upper managers. *)
val create :
  ?upper:Pager_lib.t * string ->
  stat:('file -> Attr.t) ->
  store:('file -> Attr.t -> unit) ->
  'file ->
  'file t

(** Record the pager of the layer's channel to the lower file. *)
val connect : 'file t -> Vm_types.pager_object -> unit

(** The current attributes: the cached copy, fetched from below when
    there is none. *)
val fetch : 'file t -> Attr.t

(** [update t f] replaces the attributes [a] with [f a]; a change marks
    the copy dirty and invalidates the upper managers' copies. *)
val update : 'file t -> (Attr.t -> Attr.t) -> unit

(** [set t a] is [update t (fun _ -> a)]. *)
val set : 'file t -> Attr.t -> unit

(** Write a dirty copy back to the lower file. *)
val sync_down : 'file t -> unit

(** Forget the copy without writing it back. *)
val drop : 'file t -> unit

(** Whether a copy is cached. *)
val cached : 'file t -> bool

(** The [Fs_cache] extension of the layer's cache object toward the lower
    file. *)
val fs_cache : 'file t -> Sp_obj.Exten.t

(** The [fs_pager] operations of upper channel [id]: a change it makes
    invalidates every upper copy but its own. *)
val fs_pager : 'file t -> id:int -> Vm_types.fs_pager_ops
