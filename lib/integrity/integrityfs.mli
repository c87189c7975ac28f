(** INTEGRITYFS — an end-to-end integrity (checksum) file system layer.

    A stackable layer in the style the paper's §5 extension catalogue
    suggests: it passes data through unchanged but keeps a per-page
    checksum of everything it has seen, taken in its own pager path.
    Where the SFS disk layer's {!Sp_sfs.Csum} region catches corruption
    at the device boundary, this layer catches it wherever it sits in the
    stack — below it may be a whole tower of layers (compression,
    mirroring, a remote DFS import) and any of them silently changing
    bytes is caught at [page_in] with [Fserr.Checksum_error].

    Pages are trusted on first read (the layer keeps no persistent store
    of its own) and re-checksummed on every push of a fully-determined
    page; partially-overwritten pages are forgotten and re-trusted on the
    next read.  Hashing charges simulated CPU via [Door.charge_cpu].

    The layer is an {!Sp_core.Over_one} skeleton whose files are
    {!Sp_coherency.Transform_file}s carrying their page sums. *)

(** [make ~vmm ~name ()] creates an instance; stack on exactly one
    underlying file system. *)
val make :
  ?node:string ->
  ?domain:Sp_obj.Sdomain.t ->
  vmm:Sp_vm.Vmm.t ->
  name:string ->
  unit ->
  Sp_core.Stackable.t

(** Creator (type ["integrityfs"]). *)
val creator :
  ?node:string -> vmm:Sp_vm.Vmm.t -> unit -> Sp_core.Stackable.creator

(** Pages read whose checksum matched a previous sighting. *)
val verified : Sp_core.Stackable.t -> int

(** Pages read whose checksum did not match ([Checksum_error] raised). *)
val failures : Sp_core.Stackable.t -> int
