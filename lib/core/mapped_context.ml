let rec make ~domain ~label ~lower ~wrap_file =
  let ctx_memo : (string, Sp_naming.Context.t) Hashtbl.t = Hashtbl.create 4 in
  let wrap component obj =
    match obj with
    | File.File f -> File.File (wrap_file f)
    | Sp_naming.Context.Context sub -> (
        match Hashtbl.find_opt ctx_memo component with
        | Some wrapped -> Sp_naming.Context.Context wrapped
        | None ->
            let wrapped =
              make ~domain ~label:(label ^ "/" ^ component) ~lower:sub ~wrap_file
            in
            Hashtbl.replace ctx_memo component wrapped;
            Sp_naming.Context.Context wrapped)
    | other -> other
  in
  let single component = Sp_naming.Sname.of_components [ component ] in
  let resolve1 component =
    wrap component (Sp_naming.Context.resolve lower (single component))
  in
  {
    Sp_naming.Context.ctx_domain = domain;
    ctx_label = label;
    ctx_acl = lower.Sp_naming.Context.ctx_acl;
    ctx_set_acl = lower.Sp_naming.Context.ctx_set_acl;
    ctx_resolve1 = resolve1;
    ctx_bind1 = (fun c o -> Sp_naming.Context.bind lower (single c) o);
    ctx_rebind1 = (fun c o -> Sp_naming.Context.rebind lower (single c) o);
    ctx_unbind1 = (fun c -> Sp_naming.Context.unbind lower (single c));
    ctx_list = (fun () -> Sp_naming.Context.list lower (Sp_naming.Sname.of_components []));
    ctx_readdir1 =
      (fun ~cookie ~limit ->
        Sp_naming.Context.readdir lower
          (Sp_naming.Sname.of_components [])
          ~cookie ~limit);
  }
