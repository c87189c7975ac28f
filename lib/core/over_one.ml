type t = {
  name : string;
  mutable under : Stackable.t option;
  files : (string, File.t * File.t) Hashtbl.t;
      (* lower file id -> (lower file, upper file); the stored lower
         validates a hit against identity reuse.  [pass_through] keys it
         by path instead and serves a hit unchecked. *)
}

let create ~name = { name; under = None; files = Hashtbl.create 16 }

let lower t =
  match t.under with
  | Some fs -> fs
  | None -> raise (Stackable.Stack_error (t.name ^ ": not stacked yet"))

let file t build ~fresh (lower : File.t) =
  match Hashtbl.find_opt t.files lower.File.f_id with
  | Some (stored, f) when stored == lower -> f
  | Some _ | None ->
      let f = build ~fresh lower in
      Hashtbl.replace t.files lower.File.f_id (lower, f);
      f

let iter t f = Hashtbl.iter (fun _ (_, upper) -> f upper) t.files

let charge_open_state (_ : File.t) =
  Sp_sim.Simclock.advance (Sp_sim.Cost_model.current ()).open_state_ns

let stack_on t ~sfs_type under =
  match t.under with
  | Some _ ->
      raise
        (Stackable.Stack_error
           (t.name ^ ": " ^ sfs_type ^ " stacks on exactly one file system"))
  | None -> t.under <- Some under

let stackable t ~sfs_type ~domain ~exten ~wrap ~forget ~sync ~drop_caches
    ~charge_open =
  let name = t.name in
  (* Built on first use, not at [stack_on]: an open before [stack_on]
     raises, and the next one after it must still succeed. *)
  let ctx = ref None in
  let get_ctx () =
    match !ctx with
    | Some c -> c
    | None ->
        let c =
          Mapped_context.make ~domain ~label:name
            ~lower:(lower t).Stackable.sfs_ctx
            ~wrap_file:(fun lf ->
              let f = wrap ~fresh:false lf in
              charge_open f;
              f)
        in
        ctx := Some c;
        c
  in
  {
    Stackable.sfs_name = name;
    sfs_type;
    sfs_domain = domain;
    sfs_ctx = Sp_naming.Context.forward ~domain ~label:name get_ctx;
    sfs_stack_on = stack_on t ~sfs_type;
    sfs_unders = (fun () -> Option.to_list t.under);
    sfs_create = (fun path -> wrap ~fresh:true (Stackable.create (lower t) path));
    sfs_mkdir = (fun path -> Stackable.mkdir (lower t) path);
    sfs_remove =
      (fun path ->
        let under = lower t in
        (match Stackable.open_file under path with
        | lf ->
            forget lf;
            Hashtbl.remove t.files lf.File.f_id
        | exception _ -> ());
        Stackable.remove under path);
    sfs_sync =
      (fun () ->
        sync ();
        Stackable.sync (lower t));
    sfs_drop_caches = drop_caches;
    sfs_exten = exten;
  }

let pass_through t ~sfs_type ~domain ~exten ~hidden ~wrap ~on_remove =
  let name = t.name in
  let key path =
    Printf.sprintf "%s:%s:%s" sfs_type name (Sp_naming.Sname.to_string path)
  in
  (* Keyed by path, not by lower file: a hit is served whatever the lower
     layer now binds there. *)
  let file path lower =
    let key = key path in
    match Hashtbl.find_opt t.files key with
    | Some (_, f) -> f
    | None ->
        let f = wrap ~key path lower in
        Hashtbl.replace t.files key (lower, f);
        f
  in
  let rec make_ctx path =
    let label =
      if Sp_naming.Sname.is_empty path then name
      else name ^ "/" ^ Sp_naming.Sname.to_string path
    in
    let resolve1 component =
      if hidden component then
        raise (Sp_naming.Context.Unbound (label ^ "/" ^ component));
      let sub = Sp_naming.Sname.append path component in
      match Sp_naming.Context.resolve (lower t).Stackable.sfs_ctx sub with
      | File.File f ->
          charge_open_state f;
          File.File (file sub f)
      | Sp_naming.Context.Context _ -> Sp_naming.Context.Context (make_ctx sub)
      | other -> other
    in
    (* Stream the lower directory and drop hidden names per batch:
       filtered batches may come back short, so consumers follow the
       cookie. *)
    let readdir1 ~cookie ~limit =
      Sp_dir.Cursor.filter
        (fun n -> not (hidden n))
        (fun ~cookie ~limit -> Stackable.readdir (lower t) path ~cookie ~limit)
        ~cookie ~limit
    in
    let lower_ctx () = (lower t).Stackable.sfs_ctx in
    let below c = Sp_naming.Sname.append path c in
    {
      Sp_naming.Context.ctx_domain = domain;
      ctx_label = label;
      ctx_acl = (fun () -> Sp_naming.Acl.open_acl);
      ctx_set_acl = (fun _ -> ());
      ctx_resolve1 = resolve1;
      ctx_bind1 =
        (fun c o -> Sp_naming.Context.bind (lower_ctx ()) (below c) o);
      ctx_rebind1 =
        (fun c o -> Sp_naming.Context.rebind (lower_ctx ()) (below c) o);
      ctx_unbind1 = (fun c -> Sp_naming.Context.unbind (lower_ctx ()) (below c));
      ctx_list =
        (fun () ->
          List.sort String.compare
            (Sp_dir.Cursor.drain (fun ~cookie ~limit -> readdir1 ~cookie ~limit)));
      ctx_readdir1 = readdir1;
    }
  in
  {
    Stackable.sfs_name = name;
    sfs_type;
    sfs_domain = domain;
    sfs_ctx = make_ctx (Sp_naming.Sname.of_components []);
    sfs_stack_on = stack_on t ~sfs_type;
    sfs_unders = (fun () -> Option.to_list t.under);
    sfs_create = (fun path -> file path (Stackable.create (lower t) path));
    sfs_mkdir = (fun path -> Stackable.mkdir (lower t) path);
    sfs_remove =
      (fun path ->
        Hashtbl.remove t.files (key path);
        on_remove path;
        Stackable.remove (lower t) path);
    sfs_sync = (fun () -> Stackable.sync (lower t));
    sfs_drop_caches = (fun () -> Stackable.drop_caches (lower t));
    sfs_exten = exten;
  }
