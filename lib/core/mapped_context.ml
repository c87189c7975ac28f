let rec make ~domain ~label ~lower ~wrap_file ?on_miss ?on_file () =
  (* The memo stores the lower file alongside the wrapper: a hit is valid
     only while the lower layer still returns the SAME object.  When a file
     is removed and its identity reused, lower layers mint a fresh object,
     so the stale wrapper is discarded and rebuilt. *)
  let file_memo : (string, File.t * File.t) Hashtbl.t = Hashtbl.create 16 in
  let ctx_memo : (string, Sp_naming.Context.t) Hashtbl.t = Hashtbl.create 4 in
  let wrap component obj =
    match obj with
    | File.File f -> (
        let deliver wrapped =
          (match on_file with None -> () | Some hook -> hook wrapped);
          File.File wrapped
        in
        let fresh () =
          let wrapped = wrap_file f in
          Hashtbl.replace file_memo f.File.f_id (f, wrapped);
          deliver wrapped
        in
        match Hashtbl.find_opt file_memo f.File.f_id with
        | Some (stored_lower, wrapped) when stored_lower == f -> deliver wrapped
        | Some _ | None -> fresh ())
    | Sp_naming.Context.Context sub -> (
        match Hashtbl.find_opt ctx_memo component with
        | Some wrapped -> Sp_naming.Context.Context wrapped
        | None ->
            let wrapped =
              make ~domain
                ~label:(label ^ "/" ^ component)
                ~lower:sub ~wrap_file ?on_miss ?on_file ()
            in
            Hashtbl.replace ctx_memo component wrapped;
            Sp_naming.Context.Context wrapped)
    | other -> other
  in
  let single component = Sp_naming.Sname.of_components [ component ] in
  let resolve1 component =
    match Sp_naming.Context.resolve lower (single component) with
    | obj -> wrap component obj
    | exception (Sp_naming.Context.Unbound _ as e) -> (
        match on_miss with
        | None -> raise e
        | Some synth -> (
            match synth component with Some obj -> obj | None -> raise e))
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
