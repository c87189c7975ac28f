(** CRYPTFS — an encryption file system layer.

    One of the extensions the paper's introduction motivates.  Pages of
    the exported file map 1:1 onto pages of the underlying file through a
    length-preserving keystream transform, so — unlike COMPFS — lengths and
    attributes pass straight through; only data is transformed.

    The layer accesses the underlying file through the plain file
    interface (the Figure 5 arrangement); because the transform is
    deterministic and positional, direct readers of the underlying file
    see ciphertext, and a coherent view of plaintext is obtained by
    stacking a coherency layer (or DFS) on top, per §6.3.

    The layer is an {!Sp_core.Over_one} skeleton whose files are
    {!Sp_coherency.Transform_file}s; it supplies the cipher's page_in,
    store and length change. *)

(** [make ~vmm ~name ~key ()] creates an instance; stack on exactly one
    underlying file system. *)
val make :
  ?node:string ->
  ?domain:Sp_obj.Sdomain.t ->
  vmm:Sp_vm.Vmm.t ->
  name:string ->
  key:string ->
  unit ->
  Sp_core.Stackable.t

(** Creator (type ["cryptfs"]). *)
val creator :
  ?node:string -> vmm:Sp_vm.Vmm.t -> key:string -> unit -> Sp_core.Stackable.creator
