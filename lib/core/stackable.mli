(** The stackable file system interface (paper §4.4, Figure 8).

    [stackable_fs] inherits from the file-system and naming-context
    interfaces; instances are produced by [stackable_fs_creator] objects
    registered under a well-known context (conventionally [/fs_creators]),
    stacked on underlying file systems with [stack_on], and exported by
    binding them — they are naming contexts — anywhere in the name space. *)

type t = {
  sfs_name : string;  (** instance name, e.g. ["sfs0"] *)
  sfs_type : string;  (** layer type, e.g. ["compfs"] *)
  sfs_domain : Sp_obj.Sdomain.t;
  sfs_ctx : Sp_naming.Context.t;  (** the inherited naming context *)
  sfs_stack_on : t -> unit;
      (** add an underlying file system; callable more than once if the
          layer supports several (the maximum is implementation dependent) *)
  sfs_unders : unit -> t list;
  sfs_create : Sp_naming.Sname.t -> File.t;  (** create and return a regular file *)
  sfs_mkdir : Sp_naming.Sname.t -> unit;
  sfs_remove : Sp_naming.Sname.t -> unit;
  sfs_sync : unit -> unit;  (** flush everything toward stable store *)
  sfs_drop_caches : unit -> unit;
      (** drop layer-private caches (benchmark support) *)
  sfs_exten : Sp_obj.Exten.t list;
      (** the layer's own extensions, like [File.f_exten]: a layer module
          adds a constructor carrying its state and reaches that state
          with {!narrow} — never by instance name, so two instances of
          one name, or two incarnations of a supervised layer, stay
          apart *)
}

type creator = {
  cr_type : string;
  cr_create : name:string -> t;  (** the [create] operation of Figure 8 *)
}

type Sp_naming.Context.obj +=
  | Fs of t  (** a stackable file system bound in the name space *)
  | Creator of creator

exception Stack_error of string

(** [narrow ~what project fs] is the first extension of [fs] that
    [project] accepts — how a layer module gets from the stackable it
    exported back to its own state (paper §4.3).  Raises
    [Invalid_argument "<sfs_name>: not <what>"] when none does. *)
val narrow : what:string -> (Sp_obj.Exten.t -> 'a option) -> t -> 'a

(** {1 Call helpers} *)

(** [open_file fs path] resolves [path] in the file system's naming context
    and narrows the result to a file.  Raises {!Fserr.No_such_file} /
    {!Fserr.Is_directory} accordingly. *)
val open_file : ?principal:string -> t -> Sp_naming.Sname.t -> File.t

(** Like {!open_file} but resolving through a {!Sp_naming.Name_cache}. *)
val open_file_cached :
  ?principal:string -> Sp_naming.Name_cache.t -> t -> Sp_naming.Sname.t -> File.t

val create : t -> Sp_naming.Sname.t -> File.t
val mkdir : t -> Sp_naming.Sname.t -> unit
val remove : t -> Sp_naming.Sname.t -> unit
val stack_on : t -> t -> unit
val sync : t -> unit
val drop_caches : t -> unit

(** One bounded readdir batch (cookie 0 starts a scan; [None] as the
    next cookie means exhausted).  Batches may be shorter than [limit]
    when a filtering layer sits in the stack — key termination on the
    cookie, not the batch size. *)
val readdir :
  ?principal:string ->
  t ->
  Sp_naming.Sname.t ->
  cookie:int ->
  limit:int ->
  string list * int option

(** Stream a directory in bounded batches ([batch] defaults to
    {!Sp_dir.Cursor.default_batch}) without materialising it. *)
val fold_dir :
  ?principal:string ->
  ?batch:int ->
  t ->
  Sp_naming.Sname.t ->
  ('a -> string -> 'a) ->
  'a ->
  'a

(** List names bound in a directory of the file system, sorted — a
    compatibility wrapper that drains {!readdir}; prefer the streaming
    helpers for potentially large directories. *)
val listdir : t -> Sp_naming.Sname.t -> string list

(** [rename fs ~src ~dst] moves a regular file by binding it under the new
    name and unbinding the old one at the stack's base layer — in Spring a
    rename is a name-space operation, not a file operation; upper layers
    re-wrap the file under its new name on the next resolution.  Raises
    {!Fserr.Already_exists} if [dst] is bound.  The whole
    lookup/link/unlink cycle holds per-directory write locks (source and
    destination directories, acquired in sorted order), so two
    [Sp_sched] tasks racing to rename the same name serialize: one wins,
    the other observes the post-rename namespace ([Fserr.No_such_file]).
    Sidecar state keyed by name (extended attributes, version history)
    stays under the old name. *)
val rename : t -> src:Sp_naming.Sname.t -> dst:Sp_naming.Sname.t -> unit

(** The single underlying file system of a layer, raising {!Stack_error}
    if there is not exactly one. *)
val sole_under : t -> t

(** The base of a linear stack: follow sole underlying links to the layer
    whose context actually stores name bindings. *)
val base : t -> t

(** {1 Creator registry} *)

(** [register_creator ctx creator] binds the creator as
    [<cr_type>_creator] in [ctx] (the well-known [/fs_creators] context). *)
val register_creator : Sp_naming.Context.t -> creator -> unit

(** [instantiate ctx type_name ~name] looks the creator up and creates an
    instance — steps 1–2 of the configuration method in §4.4. *)
val instantiate : Sp_naming.Context.t -> string -> name:string -> t
