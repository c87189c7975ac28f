(** Naming contexts of stacked layers.

    A layer that exports one file per underlying file exposes a naming
    context that resolves names in the underlying file system's context
    and wraps the resulting file objects.  {!Over_one} builds one for the
    coherency layer, COMPFS, CRYPTFS and INTEGRITYFS; CFS builds its own.
    Each context memoises wrapping on the underlying file identity, so
    repeated opens return the same upper file (and therefore reuse the
    same pager–cache channels and attribute caches) without calling
    [wrap_file] again, nor taking any lock the layer takes there.  The
    memo belongs to the context alone: nothing global refers to it. *)

(** [make ~domain ~label ~lower ~wrap_file ()] builds such a context.
    Sub-contexts (directories) of [lower] are wrapped recursively.  Binds,
    rebinds and unbinds are forwarded to [lower] unchanged.

    [on_miss], if given, is consulted when [lower] has no binding for a
    component — letting a layer synthesise files that "do not actually
    exist" in the underlying file system (paper §4.1).

    [on_file], if given, is invoked on {e every} resolution that returns a
    (wrapped) file, memoised or not — layers use it to account per-open
    work. *)
val make :
  domain:Sp_obj.Sdomain.t ->
  label:string ->
  lower:Sp_naming.Context.t ->
  wrap_file:(File.t -> File.t) ->
  ?on_miss:(string -> Sp_naming.Context.obj option) ->
  ?on_file:(File.t -> unit) ->
  unit ->
  Sp_naming.Context.t
