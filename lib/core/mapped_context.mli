(** Naming contexts of stacked layers.

    A layer that exports one file per underlying file exposes a naming
    context that resolves names in the underlying file system's context
    and wraps the resulting file objects.  {!Over_one} builds one for the
    coherency layer, COMPFS, CRYPTFS and INTEGRITYFS; CFS builds its own.
    The context keeps no table of files: every resolution that returns a
    file calls [wrap_file], and the layer's own table of files, the one
    its [sync] and [drop_caches] walk, makes repeated opens return the
    same upper file (and therefore reuse the same pager–cache channels
    and attribute caches).  Only sub-contexts are memoised, per
    component. *)

(** [make ~domain ~label ~lower ~wrap_file] builds such a context.
    Sub-contexts (directories) of [lower] are wrapped recursively.  Binds,
    rebinds and unbinds are forwarded to [lower] unchanged. *)
val make :
  domain:Sp_obj.Sdomain.t ->
  label:string ->
  lower:Sp_naming.Context.t ->
  wrap_file:(File.t -> File.t) ->
  Sp_naming.Context.t
