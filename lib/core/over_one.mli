(** The skeleton of a layer that stacks on exactly one file system and
    exports one upper file per lower file (paper §4.4): the coherency
    layer, COMPFS, CRYPTFS and INTEGRITYFS through {!stackable}, ATTRFS
    and VERSIONFS through {!pass_through}.

    It owns what those layers share: the slot for the one lower file
    system, the exported naming context, [stack_on], [unders], [create],
    [mkdir], [remove] and [sync].  A layer passes in only what differs —
    how a file is looked up or built, its own extensions ([sfs_exten],
    through which its introspection functions {!Stackable.narrow} the
    stackable back to their state) — plus, for {!stackable}, how a file
    is forgotten, its own sync and cache drop, and the charge of each
    open; for {!pass_through}, which names it hides and what a remove
    does first.

    A layer keeps one table from lower file to its per-file state.  The
    coherency layer and COMPFS keep their own, the one their [sync] and
    [drop_caches] walk; CRYPTFS, INTEGRITYFS and {!pass_through} keep
    theirs here, as the memo of upper files that {!file} and {!iter}
    read. *)

type t

(** [create ~name] is an empty skeleton for the instance [name]. *)
val create : name:string -> t

(** The lower file system.  Raises {!Stackable.Stack_error} before
    [stack_on]. *)
val lower : t -> Stackable.t

(** [file t build ~fresh lower] is the upper file of [lower]: the
    one in [t]'s memo when it was built for this very lower object, else
    [build ~fresh lower], which is memoised.  A lower layer mints a fresh
    object when a file is removed and its identity reused, so a stale
    upper file is never returned.  [fresh] is true when [lower] was just
    created. *)
val file :
  t -> (fresh:bool -> File.t -> File.t) -> fresh:bool -> File.t -> File.t

(** Every upper file in [t]'s memo. *)
val iter : t -> (File.t -> unit) -> unit

(** The per-open charge of a layer that keeps open state:
    [open_state_ns] of the current cost model. *)
val charge_open_state : File.t -> unit

(** [stackable t ~sfs_type ~domain ~exten ~wrap ~forget ~sync
    ~drop_caches ~charge_open] is the layer's stackable file system.  Its
    exported context is a {!Sp_naming.Context.forward}, so the value
    exists before [stack_on]; it forwards to a {!Mapped_context} built on
    the first use after [stack_on].

    - [wrap ~fresh lower] returns the upper file of [lower] on [create]
      and on every open through the exported context, which keeps no
      files of its own.  It is [file t build], or a lookup in the
      layer's own table that builds on a miss;
    - [remove] hands the lower file, if it opens, to [forget] and drops
      its entry from [t]'s memo, if any, then removes it below;
    - [sync] runs the layer's [sync], then the lower file system's;
    - [drop_caches] is the layer's own, whole;
    - [charge_open] runs on every open through the exported context.

    A second [stack_on] raises {!Stackable.Stack_error}. *)
val stackable :
  t ->
  sfs_type:string ->
  domain:Sp_obj.Sdomain.t ->
  exten:Sp_obj.Exten.t list ->
  wrap:(fresh:bool -> File.t -> File.t) ->
  forget:(File.t -> unit) ->
  sync:(unit -> unit) ->
  drop_caches:(unit -> unit) ->
  charge_open:(File.t -> unit) ->
  Stackable.t

(** [pass_through t ~sfs_type ~domain ~exten ~hidden ~wrap ~on_remove] is
    a layer whose data path is the lower file's own: its contexts mirror
    the lower name space from the lower root, path by path.

    - a component for which [hidden] holds neither resolves nor lists
      (filtered readdir batches may come back short);
    - a file opened or created at [path] is [wrap ~key path lower], built
      once per path and memoised by [key], ["<sfs_type>:<name>:<path>"],
      which [wrap] uses as the file's [f_id].  A memo hit is served
      whatever the lower layer now binds at the path;
    - every open charges [open_state_ns]; binds, rebinds and unbinds go
      to the lower root context by full path; the ACL is open;
    - [remove] drops the memo entry, runs [on_remove path], then removes
      below; [sync] and [drop_caches] are the lower file system's.

    A second [stack_on] raises {!Stackable.Stack_error}. *)
val pass_through :
  t ->
  sfs_type:string ->
  domain:Sp_obj.Sdomain.t ->
  exten:Sp_obj.Exten.t list ->
  hidden:(string -> bool) ->
  wrap:(key:string -> Sp_naming.Sname.t -> File.t -> File.t) ->
  on_remove:(Sp_naming.Sname.t -> unit) ->
  Stackable.t
