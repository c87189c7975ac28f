(** The exported file of a layer that transforms the lower file's bytes
    page by page, at the same offsets and with the same length (CRYPTFS,
    INTEGRITYFS).

    {!make} hands {!Mrsw.export_file} what such a layer shares: whole
    transformed pages assembled into grants, the lower file's attributes,
    and the shrink path.  The layer supplies only how a page comes up, how
    a pushed extent goes down, and how the lower file's length is set. *)

(** One exported file.  ['a] is the layer's own per-file state. *)
type 'a t = private {
  key : string;  (** cache key of the exported memory object *)
  lower : Sp_core.File.t;
  state : Mrsw.t;
  own : 'a;
}

(** What the layer supplies, shared by all its files. *)
type 'a ops = {
  page_in : 'a t -> int -> bytes;
      (** [page_in e page] is page [page] of the exported file, a whole
          page zero-padded past the lower file's end *)
  store : 'a t -> offset:int -> bytes -> unit;
      (** land a pushed or revoked extent in the lower file, clipped to
          its length *)
  set_len : 'a t -> int -> unit;  (** set the lower file's length *)
}

(** The lower file's length. *)
val lower_len : 'a t -> int

(** [make ~vmm ~domain ~channels ops ~key own lower] is the exported file
    of [lower], served in [domain] with upper channels registered in
    [channels] under [key]. *)
val make :
  vmm:Sp_vm.Vmm.t ->
  domain:Sp_obj.Sdomain.t ->
  channels:Sp_vm.Pager_lib.t ->
  'a ops ->
  key:string ->
  'a ->
  Sp_core.File.t ->
  Sp_core.File.t
