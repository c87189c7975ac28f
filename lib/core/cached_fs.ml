type Sp_obj.Exten.t += View of Sp_naming.Name_cache.t

let attach ?(capacity = 256) ?domain (fs : Stackable.t) =
  (* The cache is client-side state: its context is served in the caller's
     domain, so a hit involves no door crossing at all. *)
  let domain = Option.value domain ~default:Sp_obj.Door.user_domain in
  let cache = Sp_naming.Name_cache.create ~capacity () in
  let name = fs.Stackable.sfs_name ^ "+ncache" in
  let lower_ctx = fs.Stackable.sfs_ctx in
  (* Single-component resolutions consult the cache; deeper walks start
     from cached intermediate contexts naturally because the view's
     sub-contexts come from the underlying layer. *)
  let resolve1 component =
    match
      Sp_naming.Name_cache.resolve cache lower_ctx
        (Sp_naming.Sname.of_components [ component ])
    with
    | o -> o
    | exception Sp_naming.Context.Unbound _ ->
        raise (Sp_naming.Context.Unbound (name ^ "/" ^ component))
  in
  let invalidate path =
    (* Only first components are cached by this view. *)
    match Sp_naming.Sname.components path with
    | first :: _ ->
        Sp_naming.Name_cache.invalidate cache (Sp_naming.Sname.of_components [ first ])
    | [] -> ()
  in
  let ctx =
    {
      lower_ctx with
      Sp_naming.Context.ctx_domain = domain;
      ctx_label = name;
      ctx_resolve1 = resolve1;
      ctx_bind1 =
        (fun c o ->
          invalidate (Sp_naming.Sname.of_components [ c ]);
          lower_ctx.Sp_naming.Context.ctx_bind1 c o);
      ctx_rebind1 =
        (fun c o ->
          invalidate (Sp_naming.Sname.of_components [ c ]);
          lower_ctx.Sp_naming.Context.ctx_rebind1 c o);
      ctx_unbind1 =
        (fun c ->
          invalidate (Sp_naming.Sname.of_components [ c ]);
          lower_ctx.Sp_naming.Context.ctx_unbind1 c);
    }
  in
  {
    fs with
    Stackable.sfs_name = name;
    sfs_ctx = ctx;
    sfs_create =
      (fun path ->
        invalidate path;
        fs.Stackable.sfs_create path);
    sfs_remove =
      (fun path ->
        invalidate path;
        fs.Stackable.sfs_remove path);
    sfs_mkdir =
      (fun path ->
        invalidate path;
        fs.Stackable.sfs_mkdir path);
    sfs_drop_caches =
      (fun () ->
        Sp_naming.Name_cache.clear cache;
        fs.Stackable.sfs_drop_caches ());
    (* The view's own: the state of [fs] is not reached through it. *)
    sfs_exten = [ View cache ];
  }

let stats fs =
  Sp_naming.Name_cache.stats
    (Stackable.narrow ~what:"a cached view"
       (function View cache -> Some cache | _ -> None)
       fs)
