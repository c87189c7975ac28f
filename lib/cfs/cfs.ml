module V = Sp_vm.Vm_types

type entry = {
  e_remote : Sp_core.File.t;
  e_attrs : Sp_core.File.t Sp_vm.Attr_cache.t;
  mutable e_bound : bool;  (* a live channel to the remote file *)
}

type t = {
  c_name : string;
  c_domain : Sp_obj.Sdomain.t;
  c_vmm : Sp_vm.Vmm.t;
  c_wrapped : (string, entry * Sp_core.File.t) Hashtbl.t;
      (* by remote file id: each interposed file and its entry *)
}

let make ?(node = "local") ~vmm ~name () =
  {
    c_name = name;
    c_domain = Sp_obj.Sdomain.create ~node ("cfs:" ^ name);
    c_vmm = vmm;
    c_wrapped = Hashtbl.create 16;
  }

(* CFS holds no page data (the VMM does), so its cache object only has to
   answer the attribute subclass; data ranges are empty.  Destroying the
   channel forgets the attributes the entry cached: with no channel, no
   invalidation would reach them.  The file's next operation binds
   again. *)
let cache_object t e =
  {
    V.c_domain = t.c_domain;
    c_label = "cfs-cache:" ^ e.e_remote.Sp_core.File.f_id;
    c_flush_back = (fun ~offset:_ ~size:_ -> []);
    c_deny_writes = (fun ~offset:_ ~size:_ -> []);
    c_write_back = (fun ~offset:_ ~size:_ -> []);
    c_delete_range = (fun ~offset:_ ~size:_ -> ());
    c_zero_fill = (fun ~offset:_ ~size:_ -> ());
    c_populate = (fun ~offset:_ ~access:_ _ -> ());
    c_destroy =
      (fun () ->
        Sp_vm.Attr_cache.drop e.e_attrs;
        e.e_bound <- false);
    c_exten = [ Sp_vm.Attr_cache.fs_cache e.e_attrs ];
  }

(* The cache manager of one remote file's channel. *)
let manager t e =
  {
    V.cm_id = "cfs:" ^ t.c_name;
    cm_domain = t.c_domain;
    cm_connect =
      (fun ~key:_ pager ->
        Sp_vm.Attr_cache.connect e.e_attrs pager;
        e.e_bound <- true;
        cache_object t e);
  }

(* Bind as cache manager for the remote file, unless a channel is live. *)
let bind t e =
  if not e.e_bound then
    ignore (V.bind e.e_remote.Sp_core.File.f_mem (manager t e) V.Read_write)

let interpose t (remote : Sp_core.File.t) =
  match Hashtbl.find_opt t.c_wrapped remote.Sp_core.File.f_id with
  | Some (_, f) -> f
  | None ->
      let attrs =
        Sp_vm.Attr_cache.create ~stat:Sp_core.File.stat ~store:Sp_core.File.set_attr
          remote
      in
      let e = { e_remote = remote; e_attrs = attrs; e_bound = false } in
      bind t e;
      let mapped =
        Sp_core.File.mapped_ops ~vmm:t.c_vmm ~mem:remote.Sp_core.File.f_mem
          ~get_attr:(fun () -> Sp_vm.Attr_cache.fetch attrs)
          ~set_attr_len:(fun len ->
            let old = (Sp_vm.Attr_cache.fetch attrs).Sp_vm.Attr.len in
            if len > old then begin
              (* Extensions are written through so the server-side length
                 is authoritative for other clients. *)
              V.set_length remote.Sp_core.File.f_mem len;
              Sp_vm.Attr_cache.update attrs (fun a -> Sp_vm.Attr.with_len a len)
            end;
            Sp_vm.Attr_cache.update attrs Sp_vm.Attr.touch_mtime)
      in
      let f =
        {
          Sp_core.File.f_id = "cfs:" ^ t.c_name ^ ":" ^ remote.Sp_core.File.f_id;
          f_domain = t.c_domain;
          f_mem = remote.Sp_core.File.f_mem;
          f_read =
            (fun ~pos ~len ->
              bind t e;
              Sp_vm.Attr_cache.update attrs Sp_vm.Attr.touch_atime;
              mapped.Sp_core.File.mo_read ~pos ~len);
          f_write =
            (fun ~pos data ->
              bind t e;
              mapped.Sp_core.File.mo_write ~pos data);
          f_stat =
            (fun () ->
              bind t e;
              Sp_vm.Attr_cache.fetch attrs);
          f_set_attr =
            (fun a ->
              bind t e;
              Sp_vm.Attr_cache.set attrs a);
          f_truncate =
            (fun len ->
              bind t e;
              V.set_length remote.Sp_core.File.f_mem len;
              Sp_vm.Attr_cache.drop attrs);
          f_sync =
            (fun () ->
              bind t e;
              mapped.Sp_core.File.mo_sync ();
              Sp_vm.Attr_cache.sync_down attrs;
              Sp_core.File.sync e.e_remote);
          f_exten = remote.Sp_core.File.f_exten;
        }
      in
      Hashtbl.replace t.c_wrapped remote.Sp_core.File.f_id (e, f);
      f

let wrap_import t (import : Sp_core.Stackable.t) =
  let ctx =
    Sp_core.Mapped_context.make ~domain:t.c_domain
      ~label:("cfs:" ^ t.c_name ^ ":" ^ import.Sp_core.Stackable.sfs_name)
      ~lower:import.Sp_core.Stackable.sfs_ctx ~wrap_file:(interpose t)
  in
  {
    import with
    Sp_core.Stackable.sfs_name = "cfs:" ^ import.Sp_core.Stackable.sfs_name;
    sfs_type = "cfs";
    sfs_ctx = ctx;
    sfs_exten = [];
    sfs_create =
      (fun path -> interpose t (Sp_core.Stackable.create import path));
    sfs_sync =
      (fun () ->
        Hashtbl.iter (fun _ (_, f) -> Sp_core.File.sync f) t.c_wrapped;
        Sp_core.Stackable.sync import);
  }

let cached_attrs t =
  Hashtbl.fold
    (fun _ (e, _) n -> if Sp_vm.Attr_cache.cached e.e_attrs then n + 1 else n)
    t.c_wrapped 0
