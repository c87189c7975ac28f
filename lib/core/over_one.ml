type t = {
  name : string;
  mutable under : Stackable.t option;
  files : (string, File.t * File.t) Hashtbl.t;
      (* lower file id -> (lower file, upper file); the stored lower
         validates a hit against identity reuse *)
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
let forget t (lower : File.t) = Hashtbl.remove t.files lower.File.f_id
let clear t = Hashtbl.reset t.files

let charge_open_state (_ : File.t) =
  Sp_sim.Simclock.advance (Sp_sim.Cost_model.current ()).open_state_ns

let stackable t ~sfs_type ~domain ~wrap ~forget ~sync ~drop_caches ~charge_open =
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
            ~lower:(lower t).Stackable.sfs_ctx ~wrap_file:(wrap ~fresh:false)
            ~on_file:charge_open ()
        in
        ctx := Some c;
        c
  in
  let exported_ctx =
    {
      Sp_naming.Context.ctx_domain = domain;
      ctx_label = name;
      ctx_acl = (fun () -> Sp_naming.Acl.open_acl);
      ctx_set_acl = (fun _ -> ());
      ctx_resolve1 = (fun c -> (get_ctx ()).Sp_naming.Context.ctx_resolve1 c);
      ctx_bind1 = (fun c o -> (get_ctx ()).Sp_naming.Context.ctx_bind1 c o);
      ctx_rebind1 = (fun c o -> (get_ctx ()).Sp_naming.Context.ctx_rebind1 c o);
      ctx_unbind1 = (fun c -> (get_ctx ()).Sp_naming.Context.ctx_unbind1 c);
      ctx_list = (fun () -> (get_ctx ()).Sp_naming.Context.ctx_list ());
      ctx_readdir1 =
        (fun ~cookie ~limit ->
          (get_ctx ()).Sp_naming.Context.ctx_readdir1 ~cookie ~limit);
    }
  in
  {
    Stackable.sfs_name = name;
    sfs_type;
    sfs_domain = domain;
    sfs_ctx = exported_ctx;
    sfs_stack_on =
      (fun under ->
        match t.under with
        | Some _ ->
            raise
              (Stackable.Stack_error
                 (name ^ ": " ^ sfs_type ^ " stacks on exactly one file system"))
        | None -> t.under <- Some under);
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
  }
