module V = Sp_vm.Vm_types

(* ------------------------------------------------------------------ *)
(* Network proxies for the channel objects                             *)
(* ------------------------------------------------------------------ *)

let attr_bytes = 64

let proxy_fs_pager net ~src ~dst (ops : V.fs_pager_ops) =
  {
    V.fp_get_attr =
      (fun () -> Net.rpc_retry net ~src ~dst ~bytes:attr_bytes ops.V.fp_get_attr);
    fp_set_attr =
      (fun a -> Net.rpc_retry net ~src ~dst ~bytes:attr_bytes (fun () -> ops.V.fp_set_attr a));
    fp_attr_sync =
      (fun a -> Net.rpc_retry net ~src ~dst ~bytes:attr_bytes (fun () -> ops.V.fp_attr_sync a));
  }

(* Calls travel client -> server. *)
let proxy_pager net ~client ~server (p : V.pager_object) =
  let rpc bytes f = Net.rpc_retry net ~src:client ~dst:server ~bytes f in
  {
    p with
    V.p_page_in =
      (fun ~offset ~size ~access ->
        rpc size (fun () -> p.V.p_page_in ~offset ~size ~access));
    p_page_out =
      (fun ~offset data ->
        rpc (Bytes.length data) (fun () -> p.V.p_page_out ~offset data));
    p_write_out =
      (fun ~offset data ->
        rpc (Bytes.length data) (fun () -> p.V.p_write_out ~offset data));
    p_sync =
      (fun ~offset data -> rpc (Bytes.length data) (fun () -> p.V.p_sync ~offset data));
    (* A clustered writeback batch crosses the wire as one RPC. *)
    p_sync_v =
      (fun extents -> rpc (V.extents_bytes extents) (fun () -> p.V.p_sync_v extents));
    p_done_with = (fun () -> rpc 16 p.V.p_done_with);
    p_exten =
      List.map
        (function
          | V.Fs_pager ops -> V.Fs_pager (proxy_fs_pager net ~src:client ~dst:server ops)
          | other -> other)
        p.V.p_exten;
  }

let extent_bytes extents =
  List.fold_left (fun acc e -> acc + Bytes.length e.V.ext_data) 0 extents

(* Calls travel server -> client (coherency callbacks). *)
let proxy_cache net ~client ~server (c : V.cache_object) =
  let rpc bytes f = Net.rpc_retry net ~src:server ~dst:client ~bytes f in
  let ranged op ~offset ~size =
    let extents = rpc 32 (fun () -> op ~offset ~size) in
    (* The returned data rides back over the network too. *)
    Net.rpc_retry net ~src:client ~dst:server ~bytes:(extent_bytes extents) (fun () -> extents)
  in
  {
    c with
    V.c_flush_back = ranged c.V.c_flush_back;
    c_deny_writes = ranged c.V.c_deny_writes;
    c_write_back = ranged c.V.c_write_back;
    c_delete_range =
      (fun ~offset ~size -> rpc 32 (fun () -> c.V.c_delete_range ~offset ~size));
    c_zero_fill = (fun ~offset ~size -> rpc 32 (fun () -> c.V.c_zero_fill ~offset ~size));
    c_populate =
      (fun ~offset ~access data ->
        rpc (Bytes.length data) (fun () -> c.V.c_populate ~offset ~access data));
    c_destroy = (fun () -> rpc 16 c.V.c_destroy);
    c_exten =
      List.map
        (function
          | V.Fs_cache ops ->
              V.Fs_cache
                {
                  V.fc_invalidate_attr =
                    (fun () -> rpc attr_bytes ops.V.fc_invalidate_attr);
                  fc_write_back_attr =
                    (fun () -> rpc attr_bytes ops.V.fc_write_back_attr);
                  fc_populate_attr =
                    (fun a -> rpc attr_bytes (fun () -> ops.V.fc_populate_attr a));
                }
          | other -> other)
        c.V.c_exten;
  }

(* ------------------------------------------------------------------ *)
(* Remote memory objects and files                                     *)
(* ------------------------------------------------------------------ *)

let remote_mem net ~client ~server (mem : V.memory_object) =
  {
    mem with
    V.m_bind =
      (fun mgr access ->
        let mgr' =
          {
            mgr with
            V.cm_id = mgr.V.cm_id ^ "@" ^ client;
            cm_connect =
              (fun ~key pager ->
                let pager' = proxy_pager net ~client ~server pager in
                let cache =
                  Net.rpc_retry net ~src:server ~dst:client ~bytes:128 (fun () ->
                      mgr.V.cm_connect ~key pager')
                in
                proxy_cache net ~client ~server cache);
          }
        in
        Net.rpc_retry net ~src:client ~dst:server ~bytes:64 (fun () -> V.bind mem mgr' access));
    m_get_length =
      (fun () -> Net.rpc_retry net ~src:client ~dst:server ~bytes:16 (fun () -> V.get_length mem));
    m_set_length =
      (fun len ->
        Net.rpc_retry net ~src:client ~dst:server ~bytes:16 (fun () -> V.set_length mem len));
  }

let remote_file net ~client ~client_domain ~server (f : Sp_core.File.t) =
  {
    Sp_core.File.f_id = Printf.sprintf "dfs-remote:%s:%s" client f.Sp_core.File.f_id;
    f_domain = client_domain;
    f_mem = remote_mem net ~client ~server f.Sp_core.File.f_mem;
    f_read =
      (fun ~pos ~len ->
        Net.rpc_retry net ~src:client ~dst:server ~bytes:len (fun () ->
            Sp_core.File.read f ~pos ~len));
    f_write =
      (fun ~pos data ->
        Net.rpc_retry net ~src:client ~dst:server ~bytes:(Bytes.length data) (fun () ->
            Sp_core.File.write f ~pos data));
    f_stat =
      (fun () ->
        Net.rpc_retry net ~src:client ~dst:server ~bytes:attr_bytes (fun () ->
            Sp_core.File.stat f));
    f_set_attr =
      (fun a ->
        Net.rpc_retry net ~src:client ~dst:server ~bytes:attr_bytes (fun () ->
            Sp_core.File.set_attr f a));
    f_truncate =
      (fun len ->
        Net.rpc_retry net ~src:client ~dst:server ~bytes:16 (fun () ->
            Sp_core.File.truncate f len));
    f_sync =
      (fun () ->
        Net.rpc_retry net ~src:client ~dst:server ~bytes:16 (fun () -> Sp_core.File.sync f));
    f_exten = f.Sp_core.File.f_exten;
  }

(* ------------------------------------------------------------------ *)
(* The server layer                                                    *)
(* ------------------------------------------------------------------ *)

type server = {
  s_name : string;
  s_node : string;
  s_domain : Sp_obj.Sdomain.t;
  s_net : Net.t;
  s_vmm : Sp_vm.Vmm.t;
  mutable s_lower : Sp_core.Stackable.t option;
  mutable s_coh : Sp_core.Stackable.t option;
}

(* Keyed by name because an import holds its server by name: each call
   re-resolves the current incarnation after a supervised restart. *)
let servers : (string, server) Hashtbl.t = Hashtbl.create 4

let server_of (sfs : Sp_core.Stackable.t) =
  match Hashtbl.find_opt servers sfs.Sp_core.Stackable.sfs_name with
  | Some s -> s
  | None -> invalid_arg (sfs.Sp_core.Stackable.sfs_name ^ ": not a DFS server")

let lower_of s =
  match s.s_lower with
  | Some fs -> fs
  | None -> raise (Sp_core.Stackable.Stack_error (s.s_name ^ ": not stacked yet"))

let coh_of s =
  match s.s_coh with
  | Some fs -> fs
  | None -> raise (Sp_core.Stackable.Stack_error (s.s_name ^ ": not stacked yet"))

let make_server ?(node = "local") ~net ~vmm ~name () =
  let domain = Sp_obj.Sdomain.create ~node name in
  let s =
    {
      s_name = name;
      s_node = node;
      s_domain = domain;
      s_net = net;
      s_vmm = vmm;
      s_lower = None;
      s_coh = None;
    }
  in
  Hashtbl.replace servers name s;
  (* The local view: names resolve in the underlying file system and the
     underlying files are returned unchanged — local binds are thereby
     "forwarded" and local paging bypasses DFS entirely (Figure 7). *)
  let local_ctx =
    Sp_naming.Context.forward ~domain ~label:name (fun () ->
        (lower_of s).Sp_core.Stackable.sfs_ctx)
  in
  {
    Sp_core.Stackable.sfs_name = name;
    sfs_type = "dfs";
    sfs_domain = domain;
    sfs_ctx = local_ctx;
    sfs_stack_on =
      (fun under ->
        match s.s_lower with
        | Some _ ->
            raise
              (Sp_core.Stackable.Stack_error
                 (name ^ ": dfs stacks on exactly one file system"))
        | None ->
            s.s_lower <- Some under;
            (* The embedded coherency layer — "the Spring distributed file
               system is implemented as a coherency layer" (§6.2). *)
            let coh =
              Sp_coherency.Coherency_layer.make ~node ~domain ~vmm
                ~name:(name ^ ".coh") ()
            in
            Sp_core.Stackable.stack_on coh under;
            s.s_coh <- Some coh);
    sfs_unders = (fun () -> Option.to_list s.s_lower);
    sfs_create = (fun path -> Sp_core.Stackable.create (lower_of s) path);
    sfs_mkdir = (fun path -> Sp_core.Stackable.mkdir (lower_of s) path);
    sfs_remove = (fun path -> Sp_core.Stackable.remove (lower_of s) path);
    sfs_sync =
      (fun () ->
        Sp_core.Stackable.sync (coh_of s);
        Sp_core.Stackable.sync (lower_of s));
    sfs_drop_caches = (fun () -> Sp_core.Stackable.drop_caches (coh_of s));
    sfs_exten = [];
  }

let creator ?(node = "local") ~net ~vmm () =
  {
    Sp_core.Stackable.cr_type = "dfs";
    cr_create = (fun ~name -> make_server ~node ~net ~vmm ~name ());
  }

let coherency_of sfs = coh_of (server_of sfs)

(* ------------------------------------------------------------------ *)
(* The client view                                                     *)
(* ------------------------------------------------------------------ *)

let import ~net ~client_node server_sfs =
  let s0 = server_of server_sfs in
  let sname = s0.s_name in
  let server_node = s0.s_node in
  let client_domain =
    Sp_obj.Sdomain.create ~node:client_node ("dfs-client:" ^ sname)
  in
  let memo : (string, Sp_core.File.t) Hashtbl.t = Hashtbl.create 16 in
  (* The client holds the server by *name*, not by value: every operation
     re-looks-up the current server incarnation, so a server restarted by
     a supervisor is picked up transparently.  Memoized remote files wrap
     the incarnation they were minted from; when the serving domain
     changes they are forgotten (operations on handles minted from the
     dead incarnation raise [Dead_domain] and must be re-opened, exactly
     like local files across a layer restart). *)
  let last_id = ref (Sp_obj.Sdomain.id s0.s_domain) in
  let current () =
    let s =
      match Hashtbl.find_opt servers sname with
      | Some s -> s
      | None -> invalid_arg (sname ^ ": not a DFS server")
    in
    if Sp_obj.Sdomain.id s.s_domain <> !last_id then begin
      Hashtbl.reset memo;
      last_id := Sp_obj.Sdomain.id s.s_domain
    end;
    s
  in
  let coh_now () = coh_of (current ()) in
  let wrap_remote f =
    match Hashtbl.find_opt memo f.Sp_core.File.f_id with
    | Some r -> r
    | None ->
        let r = remote_file net ~client:client_node ~client_domain ~server:server_node f in
        Hashtbl.replace memo f.Sp_core.File.f_id r;
        r
  in
  let rec import_ctx path =
    let label =
      Printf.sprintf "dfs-import:%s:%s" client_node (Sp_naming.Sname.to_string path)
    in
    let remote_resolve sub =
      Net.rpc_retry net ~src:client_node ~dst:server_node ~bytes:64 (fun () ->
          Sp_naming.Context.resolve (coh_now ()).Sp_core.Stackable.sfs_ctx sub)
    in
    let resolve1 component =
      let sub = Sp_naming.Sname.append path component in
      match remote_resolve sub with
      | Sp_core.File.File f -> Sp_core.File.File (wrap_remote f)
      | Sp_naming.Context.Context _ -> Sp_naming.Context.Context (import_ctx sub)
      | other -> other
    in
    {
      Sp_naming.Context.ctx_domain = client_domain;
      ctx_label = label;
      ctx_acl = (fun () -> Sp_naming.Acl.open_acl);
      ctx_set_acl = (fun _ -> ());
      ctx_resolve1 = resolve1;
      ctx_bind1 = (fun _ _ -> invalid_arg (label ^ ": bind via the server"));
      ctx_rebind1 = (fun _ _ -> invalid_arg (label ^ ": rebind via the server"));
      ctx_unbind1 =
        (fun component ->
          Net.rpc_retry net ~src:client_node ~dst:server_node ~bytes:64 (fun () ->
              Sp_naming.Context.unbind (coh_now ()).Sp_core.Stackable.sfs_ctx
                (Sp_naming.Sname.append path component)));
      ctx_list =
        (fun () ->
          Net.rpc_retry net ~src:client_node ~dst:server_node ~bytes:64 (fun () ->
              Sp_naming.Context.list (coh_now ()).Sp_core.Stackable.sfs_ctx path));
      ctx_readdir1 =
        (* One RPC per batch: the remote cursor streams a big directory
           without ever shipping the whole listing. *)
        (fun ~cookie ~limit ->
          Net.rpc_retry net ~src:client_node ~dst:server_node ~bytes:64 (fun () ->
              Sp_naming.Context.readdir (coh_now ()).Sp_core.Stackable.sfs_ctx
                path ~cookie ~limit));
    }
  in
  let rpc_to_server bytes f = Net.rpc_retry net ~src:client_node ~dst:server_node ~bytes f in
  {
    Sp_core.Stackable.sfs_name = sname ^ "@" ^ client_node;
    sfs_type = "dfs-import";
    sfs_domain = client_domain;
    sfs_ctx = import_ctx (Sp_naming.Sname.of_components []);
    sfs_stack_on =
      (fun _ ->
        raise
          (Sp_core.Stackable.Stack_error "dfs-import: imports cannot be stacked on"));
    sfs_unders = (fun () -> []);
    sfs_create =
      (fun path ->
        let f =
          rpc_to_server 64 (fun () -> Sp_core.Stackable.create (coh_now ()) path)
        in
        wrap_remote f);
    sfs_mkdir =
      (fun path -> rpc_to_server 64 (fun () -> Sp_core.Stackable.mkdir (coh_now ()) path));
    sfs_remove =
      (fun path -> rpc_to_server 64 (fun () -> Sp_core.Stackable.remove (coh_now ()) path));
    sfs_sync = (fun () -> rpc_to_server 16 (fun () -> Sp_core.Stackable.sync (coh_now ())));
    sfs_drop_caches = (fun () -> ());
    sfs_exten = [];
  }
