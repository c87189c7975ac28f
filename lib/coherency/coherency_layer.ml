module V = Sp_vm.Vm_types

let ps = V.page_size

type cfile = {
  key : string;  (* cache key of the exported memory object *)
  lower : Sp_core.File.t;
  mutable lower_pager : V.pager_object option;
  state : Mrsw.t;  (* holders of the exported file's blocks, and the grant lock *)
  attrs : Sp_core.File.t Sp_vm.Attr_cache.t;
}

type layer = {
  l_name : string;
  l_epoch : int;  (* recovery epoch: bumped every time the same instance
                     name is re-made, i.e. on supervised restart *)
  l_domain : Sp_obj.Sdomain.t;
  l_vmm : Sp_vm.Vmm.t;
  l_embedded : bool;
  mutable l_lower : Sp_core.Stackable.t option;
  l_channels : Sp_vm.Pager_lib.t;  (* upper channels, all files *)
  l_files : (string, cfile) Hashtbl.t;  (* keyed by lower file id *)
  l_wrapped : (string, Sp_core.File.t * Sp_core.File.t) Hashtbl.t;
      (* lower file id -> (lower file, wrapper); the stored lower validates
         hits against identity reuse *)
}

let instances : (string, layer) Hashtbl.t = Hashtbl.create 4

let layer_of (sfs : Sp_core.Stackable.t) =
  match Hashtbl.find_opt instances sfs.Sp_core.Stackable.sfs_name with
  | Some l -> l
  | None -> invalid_arg (sfs.Sp_core.Stackable.sfs_name ^ ": not a coherency layer")

let lower_of l =
  match l.l_lower with
  | Some fs -> fs
  | None -> raise (Sp_core.Stackable.Stack_error (l.l_name ^ ": not stacked yet"))

let lower_pager_of cf =
  match cf.lower_pager with
  | Some p -> p
  | None -> failwith (cf.key ^ ": lower channel not established")

(* ------------------------------------------------------------------ *)
(* The MRSW protocol                                                   *)
(* ------------------------------------------------------------------ *)

(* Land a pushed or revoked extent in the lower file, keeping the
   retention the upper cache asked for. *)
let store cf ~retain ~offset data =
  let pager = lower_pager_of cf in
  match retain with
  | `Drop -> V.page_out pager ~offset data
  | `Read_only -> V.write_out pager ~offset data
  | `Same -> V.sync pager ~offset data

let write_down cf x = store cf ~retain:`Read_only ~offset:x.V.ext_offset x.V.ext_data

let upper_pager l cf ~id =
  Mrsw.pager cf.state ~channels:l.l_channels ~id ~domain:l.l_domain ~label:cf.key
    ~produce:(fun ~offset ~size ~access ->
      V.page_in (lower_pager_of cf) ~offset ~size ~access)
    ~store:(store cf)
    ~sync_v:(fun extents ->
      (* Vectored sync: callers retain their mode, so there is no block
         state to update — forward the whole batch to the lower pager in
         a single vectored crossing, without the lock. *)
      V.sync_v (lower_pager_of cf) extents)
    (Sp_vm.Attr_cache.fs_pager cf.attrs ~id)

(* ------------------------------------------------------------------ *)
(* Acting as cache manager for the lower layer                          *)
(* ------------------------------------------------------------------ *)

(* Coherency actions arriving from below are forwarded to every upper
   cache; this is what lets coherent stacks be built out of non-coherent
   layers (§6.3). *)
let lower_cache_object l cf =
  let forward = Mrsw.forward cf.state ~channels:l.l_channels in
  {
    V.c_domain = l.l_domain;
    c_label = "coh-cache:" ^ cf.key;
    c_flush_back = forward `Flush;
    c_deny_writes = forward `Deny;
    c_write_back = forward `Write_back;
    c_delete_range = (fun ~offset ~size -> ignore (forward `Delete ~offset ~size));
    c_zero_fill = (fun ~offset ~size -> ignore (forward `Zero ~offset ~size));
    c_populate = (fun ~offset:_ ~access:_ _ -> ());
    c_destroy =
      (fun () ->
        (* Cascade: our backing identity is gone, so our exported identity
           is too. *)
        Sp_vm.Pager_lib.destroy_key l.l_channels ~key:cf.key;
        Hashtbl.remove l.l_files cf.lower.Sp_core.File.f_id;
        Hashtbl.remove l.l_wrapped cf.lower.Sp_core.File.f_id);
    c_exten = [ Sp_vm.Attr_cache.fs_cache cf.attrs ];
  }

let manager l =
  {
    V.cm_id = "coh:" ^ l.l_name;
    cm_domain = l.l_domain;
    cm_connect =
      (fun ~key pager ->
        match Hashtbl.find_opt l.l_files key with
        | None -> failwith (l.l_name ^ ": connect for unknown file " ^ key)
        | Some cf ->
            cf.lower_pager <- Some pager;
            Sp_vm.Attr_cache.connect cf.attrs pager;
            lower_cache_object l cf);
  }

(* ------------------------------------------------------------------ *)
(* Per-file maintenance                                                *)
(* ------------------------------------------------------------------ *)

let sweep l cf action =
  Mrsw.sweep cf.state ~channels:l.l_channels action ~write_down:(write_down cf)

let sync_cfile l cf =
  sweep l cf `Write_back;
  Sp_vm.Attr_cache.sync_down cf.attrs

let drop_cfile_caches l cf =
  sweep l cf `Flush;
  Sp_vm.Attr_cache.sync_down cf.attrs;
  Sp_vm.Attr_cache.drop cf.attrs

(* Shrinks must also discard stale cached pages beyond the new length:
   push the boundary page's dirty data down, zero its cached tail, delete
   fully-cut pages from every cache, then propagate the cut so the lower
   layer frees the blocks. *)
let truncate_cfile l cf len =
  let old = (Sp_vm.Attr_cache.fetch cf.attrs).Sp_vm.Attr.len in
  if len < old then begin
    let channels = Sp_vm.Pager_lib.live_channels_for_key l.l_channels ~key:cf.key in
    let cut = (len + ps - 1) / ps * ps in
    if len mod ps <> 0 then begin
      let edge = len - (len mod ps) in
      List.iter
        (fun ch ->
          List.iter (write_down cf)
            (V.write_back ch.Sp_vm.Pager_lib.ch_cache ~offset:edge ~size:ps);
          V.zero_fill ch.Sp_vm.Pager_lib.ch_cache ~offset:len ~size:(cut - len))
        channels
    end;
    if old > cut then
      List.iter
        (fun ch ->
          V.delete_range ch.Sp_vm.Pager_lib.ch_cache ~offset:cut ~size:(old - cut))
        channels;
    Mrsw.drop_blocks_from cf.state ~block:(cut / ps);
    V.set_length cf.lower.Sp_core.File.f_mem len
  end;
  Sp_vm.Attr_cache.update cf.attrs (fun a ->
      Sp_vm.Attr.touch_mtime (Sp_vm.Attr.with_len a len))

(* ------------------------------------------------------------------ *)
(* Exported files                                                      *)
(* ------------------------------------------------------------------ *)

let store_attr (lower : Sp_core.File.t) a =
  V.set_length lower.Sp_core.File.f_mem a.Sp_vm.Attr.len;
  Sp_core.File.set_attr lower a

let make_cfile l (lower : Sp_core.File.t) =
  let key = Printf.sprintf "coh:%s:%s" l.l_name lower.Sp_core.File.f_id in
  let cf =
    {
      key;
      lower;
      lower_pager = None;
      state = Mrsw.create ();
      attrs =
        Sp_vm.Attr_cache.create ~upper:(l.l_channels, key) ~stat:Sp_core.File.stat
          ~store:store_attr lower;
    }
  in
  Hashtbl.replace l.l_files lower.Sp_core.File.f_id cf;
  (* Establish our cache-manager channel to the lower file eagerly. *)
  ignore (V.bind lower.Sp_core.File.f_mem (manager l) V.Read_write);
  cf

let make_memory_object l cf =
  {
    V.m_domain = l.l_domain;
    m_label = cf.key;
    m_bind =
      (fun mgr _access ->
        Sp_vm.Pager_lib.bind l.l_channels ~key:cf.key
          ~make_pager:(fun ~id -> upper_pager l cf ~id)
          mgr);
    m_get_length = (fun () -> (Sp_vm.Attr_cache.fetch cf.attrs).Sp_vm.Attr.len);
    m_set_length = (fun len -> truncate_cfile l cf len);
  }

let rec wrap_file l (lower : Sp_core.File.t) =
  match Hashtbl.find_opt l.l_wrapped lower.Sp_core.File.f_id with
  | Some (stored, f) when stored == lower -> f
  | Some _ | None ->
      let f = wrap_file_fresh l lower in
      Hashtbl.replace l.l_wrapped lower.Sp_core.File.f_id (lower, f);
      f

and wrap_file_fresh l (lower : Sp_core.File.t) =
  let cf = make_cfile l lower in
  let mem = make_memory_object l cf in
  let mapped =
    Sp_core.File.mapped_ops ~vmm:l.l_vmm ~mem
      ~get_attr:(fun () -> Sp_vm.Attr_cache.fetch cf.attrs)
      ~set_attr_len:(fun len ->
        Sp_vm.Attr_cache.update cf.attrs (fun a ->
            Sp_vm.Attr.touch_mtime (Sp_vm.Attr.with_len a (max len a.Sp_vm.Attr.len))))
  in
  {
    Sp_core.File.f_id = cf.key;
    f_domain = l.l_domain;
    f_mem = mem;
    f_read =
      (fun ~pos ~len ->
        Sp_vm.Attr_cache.update cf.attrs Sp_vm.Attr.touch_atime;
        mapped.Sp_core.File.mo_read ~pos ~len);
    f_write = mapped.Sp_core.File.mo_write;
    f_stat = (fun () -> Sp_vm.Attr_cache.fetch cf.attrs);
    f_set_attr = Sp_vm.Attr_cache.set cf.attrs;
    f_truncate = (fun len -> truncate_cfile l cf len);
    f_sync =
      (fun () ->
        mapped.Sp_core.File.mo_sync ();
        sync_cfile l cf;
        Sp_core.File.sync lower);
    f_exten = [];
  }

(* ------------------------------------------------------------------ *)
(* The stackable layer                                                 *)
(* ------------------------------------------------------------------ *)

let iter_cfiles l f = Hashtbl.iter (fun _ cf -> f cf) l.l_files

let make ?(node = "local") ?domain ?(embedded = false) ~vmm ~name () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let epoch =
    match Hashtbl.find_opt instances name with
    | Some old -> old.l_epoch + 1
    | None -> 0
  in
  let l =
    {
      l_name = name;
      l_epoch = epoch;
      l_domain = domain;
      l_vmm = vmm;
      l_embedded = embedded;
      l_lower = None;
      l_channels = Sp_vm.Pager_lib.create ();
      l_files = Hashtbl.create 16;
      l_wrapped = Hashtbl.create 16;
    }
  in
  Hashtbl.replace instances name l;
  let ctx = ref None in
  let get_ctx () =
    match !ctx with
    | Some c -> c
    | None ->
        let lower = lower_of l in
        let charge_open (_ : Sp_core.File.t) =
          if not l.l_embedded then
            Sp_sim.Simclock.advance (Sp_sim.Cost_model.current ()).open_state_ns
        in
        let c =
          Sp_core.Mapped_context.make ~domain ~label:name
            ~lower:lower.Sp_core.Stackable.sfs_ctx ~wrap_file:(wrap_file l)
            ~on_file:charge_open ()
        in
        ctx := Some c;
        c
  in
  let resolve_through component =
    (get_ctx ()).Sp_naming.Context.ctx_resolve1 component
  in
  (* The exported context is a fixed record delegating to the lazily-built
     mapped context, so the stackable value can exist before stack_on. *)
  let exported_ctx =
    {
      Sp_naming.Context.ctx_domain = domain;
      ctx_label = name;
      ctx_acl = (fun () -> Sp_naming.Acl.open_acl);
      ctx_set_acl = (fun _ -> ());
      ctx_resolve1 = resolve_through;
      ctx_bind1 = (fun c o -> (get_ctx ()).Sp_naming.Context.ctx_bind1 c o);
      ctx_rebind1 = (fun c o -> (get_ctx ()).Sp_naming.Context.ctx_rebind1 c o);
      ctx_unbind1 = (fun c -> (get_ctx ()).Sp_naming.Context.ctx_unbind1 c);
      ctx_list = (fun () -> (get_ctx ()).Sp_naming.Context.ctx_list ());
      ctx_readdir1 =
        (fun ~cookie ~limit ->
          (get_ctx ()).Sp_naming.Context.ctx_readdir1 ~cookie ~limit);
    }
  in
  let self =
    {
      Sp_core.Stackable.sfs_name = name;
      sfs_type = "coherency";
      sfs_domain = domain;
      sfs_ctx = exported_ctx;
      sfs_stack_on =
        (fun under ->
          match l.l_lower with
          | Some _ ->
              raise
                (Sp_core.Stackable.Stack_error
                   (name ^ ": coherency layer stacks on exactly one file system"))
          | None -> l.l_lower <- Some under);
      sfs_unders = (fun () -> Option.to_list l.l_lower);
      sfs_create =
        (fun path ->
          let lower = lower_of l in
          let lower_file = Sp_core.Stackable.create lower path in
          wrap_file l lower_file);
      sfs_mkdir = (fun path -> Sp_core.Stackable.mkdir (lower_of l) path);
      sfs_remove =
        (fun path ->
          let lower = lower_of l in
          (match Sp_core.Stackable.open_file lower path with
          | lower_file -> (
              match Hashtbl.find_opt l.l_files lower_file.Sp_core.File.f_id with
              | Some cf ->
                  sweep l cf `Flush;
                  Sp_vm.Pager_lib.destroy_key l.l_channels ~key:cf.key;
                  Hashtbl.remove l.l_files lower_file.Sp_core.File.f_id;
                  Hashtbl.remove l.l_wrapped lower_file.Sp_core.File.f_id
              | None ->
                  Hashtbl.remove l.l_wrapped lower_file.Sp_core.File.f_id)
          | exception _ -> ());
          Sp_core.Stackable.remove lower path);
      sfs_sync =
        (fun () ->
          iter_cfiles l (fun cf -> sync_cfile l cf);
          Sp_core.Stackable.sync (lower_of l));
      sfs_drop_caches =
        (fun () ->
          (* Evict, don't just flush: the cfile table otherwise grows
             with every file ever touched, which unbounds the heap of a
             bulk build (the million-file scenario).  Evicted state is
             rebuilt on demand at the next open.  Forward down so the
             whole stack sheds its caches. *)
          iter_cfiles l (fun cf ->
              drop_cfile_caches l cf;
              Sp_vm.Pager_lib.destroy_key l.l_channels ~key:cf.key);
          Hashtbl.reset l.l_files;
          Hashtbl.reset l.l_wrapped;
          Sp_vm.Vmm.drop_caches l.l_vmm;
          Sp_core.Stackable.drop_caches (lower_of l));
    }
  in
  self

let creator ?(node = "local") ~vmm () =
  {
    Sp_core.Stackable.cr_type = "coherency";
    cr_create = (fun ~name -> make ~node ~vmm ~name ());
  }

let channel_count sfs = Sp_vm.Pager_lib.channel_count (layer_of sfs).l_channels
let recovery_epoch sfs = (layer_of sfs).l_epoch

let invariant_holds sfs =
  let l = layer_of sfs in
  Hashtbl.fold (fun _ cf ok -> ok && Mrsw.invariant_holds cf.state) l.l_files true

let cached_attrs sfs =
  let l = layer_of sfs in
  Hashtbl.fold
    (fun _ cf n -> if Sp_vm.Attr_cache.cached cf.attrs then n + 1 else n)
    l.l_files 0
