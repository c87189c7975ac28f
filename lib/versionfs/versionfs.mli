(** VERSIONFS — a file-versioning (snapshot) layer.

    Another functionality extension in the spirit of the paper's
    introduction: snapshots of individual files are retained in the
    underlying layer as hidden version files (".v<n>.<name>"), so no
    change to the underlying file system is needed.  [snapshot] captures
    the current contents; [open_version] returns a read-only file (writes
    are refused via the same interposition machinery as §5's watchdogs);
    [restore] copies a version back over the current file.

    Data operations pass straight through to the underlying file (the
    memory object is forwarded, as in ATTRFS), so versioning costs nothing
    on the data path. *)

val make :
  ?node:string ->
  ?domain:Sp_obj.Sdomain.t ->
  name:string ->
  unit ->
  Sp_core.Stackable.t

(** Creator (type ["versionfs"]). *)
val creator : ?node:string -> unit -> Sp_core.Stackable.creator

(** Capture the current contents of the file at [path]; returns the new
    version number (1-based, monotonically increasing per file). *)
val snapshot : Sp_core.Stackable.t -> Sp_naming.Sname.t -> int

(** Existing version numbers, ascending. *)
val versions : Sp_core.Stackable.t -> Sp_naming.Sname.t -> int list

(** A read-only view of version [n].  Raises {!Sp_core.Fserr.No_such_file}
    for unknown versions. *)
val open_version :
  Sp_core.Stackable.t -> Sp_naming.Sname.t -> int -> Sp_core.File.t

(** Overwrite the current file with version [n]'s contents. *)
val restore : Sp_core.Stackable.t -> Sp_naming.Sname.t -> int -> unit
