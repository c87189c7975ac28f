module V = Sp_vm.Vm_types

let ps = V.page_size

type cfile = {
  key : string;  (* cache key of the exported memory object *)
  lower : Sp_core.File.t;
  mutable lower_pager : V.pager_object option;
  state : Mrsw.t;  (* holders of the exported file's blocks, and the grant lock *)
  attrs : Sp_core.File.t Sp_vm.Attr_cache.t;
  mutable exported : Sp_core.File.t option;  (* set once [export] made it *)
}

type layer = {
  l_name : string;
  l_domain : Sp_obj.Sdomain.t;
  l_vmm : Sp_vm.Vmm.t;
  l_over : Sp_core.Over_one.t;
  l_channels : Sp_vm.Pager_lib.t;  (* upper channels, all files *)
  l_files : (string, cfile) Hashtbl.t;
      (* keyed by lower file id: the layer's one table of files, read by
         opens, [sync], [drop_caches] and the introspection below *)
}

type Sp_obj.Exten.t += Layer of layer

let layer_of =
  Sp_core.Stackable.narrow ~what:"a coherency layer" (function
    | Layer l -> Some l
    | _ -> None)

(* Whether [cf] is the layer's file for its lower file: [drop_caches]
   evicts every file, and a file object someone still holds outlives it. *)
let current l cf =
  match Hashtbl.find_opt l.l_files cf.lower.Sp_core.File.f_id with
  | Some c -> c == cf
  | None -> false

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
           is too — unless [drop_caches] already evicted it. *)
        if current l cf then begin
          Sp_vm.Pager_lib.destroy_key l.l_channels ~key:cf.key;
          Hashtbl.remove l.l_files cf.lower.Sp_core.File.f_id
        end);
    c_exten = [ Sp_vm.Attr_cache.fs_cache cf.attrs ];
  }

(* The cache manager of one file's channel to its lower file. *)
let manager l cf =
  {
    V.cm_id = "coh:" ^ l.l_name;
    cm_domain = l.l_domain;
    cm_connect =
      (fun ~key:_ pager ->
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
      exported = None;
    }
  in
  Hashtbl.replace l.l_files lower.Sp_core.File.f_id cf;
  (* Establish our cache-manager channel to the lower file eagerly. *)
  ignore (V.bind lower.Sp_core.File.f_mem (manager l cf) V.Read_write);
  cf

let exported_of cf =
  match cf.exported with
  | Some f -> f
  | None -> failwith (cf.key ^ ": not exported yet")

(* [drop_caches] evicts every file, but a file object someone still holds
   (a remote client, an upper layer) outlives it.  Binds of its memory
   object and its sizes go to the file a newer open built for the same
   lower file; with none, it takes its own file back into the layer with
   a fresh channel to the lower file.  Either way the layer keeps one file
   per lower file.  Its own reads and writes map the memory object
   underneath, and stay with the evicted file. *)
let route l cf =
  match Hashtbl.find_opt l.l_files cf.lower.Sp_core.File.f_id with
  | Some c when c == cf -> None
  | Some c -> Some (exported_of c).Sp_core.File.f_mem
  | None ->
      Hashtbl.replace l.l_files cf.lower.Sp_core.File.f_id cf;
      ignore (V.bind cf.lower.Sp_core.File.f_mem (manager l cf) V.Read_write);
      None

let export l cf =
  let lower = cf.lower in
  let stat () = Sp_vm.Attr_cache.fetch cf.attrs in
  let f =
    Mrsw.export_file ~vmm:l.l_vmm ~domain:l.l_domain ~channels:l.l_channels ~key:cf.key
      ~produce:(fun ~offset ~size ~access ->
        V.page_in (lower_pager_of cf) ~offset ~size ~access)
      ~store:(store cf)
      ~sync_v:(fun extents ->
        (* Vectored sync: callers retain their mode, so there is no block
           state to update — forward the whole batch to the lower pager in
           a single vectored crossing, without the lock. *)
        V.sync_v (lower_pager_of cf) extents)
      ~fs_pager:(Sp_vm.Attr_cache.fs_pager cf.attrs)
      ~stat
      ~length:(fun () ->
        match route l cf with
        | Some m -> m.V.m_get_length ()
        | None -> (stat ()).Sp_vm.Attr.len)
      ~set_attr:(Sp_vm.Attr_cache.set cf.attrs)
      ~grow:(fun len ->
        Sp_vm.Attr_cache.update cf.attrs (fun a ->
            Sp_vm.Attr.touch_mtime (Sp_vm.Attr.with_len a (max len a.Sp_vm.Attr.len))))
      ~truncate:(fun len ->
        match route l cf with
        | Some m -> m.V.m_set_length len
        | None -> truncate_cfile l cf len)
      ~sync:(fun () ->
        sync_cfile l cf;
        Sp_core.File.sync lower)
      cf.state
  in
  let read = f.Sp_core.File.f_read and mem = f.Sp_core.File.f_mem in
  let exported =
    {
      f with
      f_read =
        (fun ~pos ~len ->
          Sp_vm.Attr_cache.update cf.attrs Sp_vm.Attr.touch_atime;
          read ~pos ~len);
      f_mem =
        {
          mem with
          V.m_bind =
            (fun mgr access ->
              match route l cf with
              | Some m -> m.V.m_bind mgr access
              | None -> mem.V.m_bind mgr access);
        };
    }
  in
  cf.exported <- Some exported;
  exported

(* The layer's file for [lower], built on a miss.  [l_files] takes a
   file's entry before its export finishes, so an entry without one is
   not served.  A lower file that already has a file here — one an
   evicted object's holder took back — keeps it, though the lower layer
   now returns a new object for it. *)
let file_of l ~fresh:_ (lower : Sp_core.File.t) =
  match Hashtbl.find_opt l.l_files lower.Sp_core.File.f_id with
  | Some { exported = Some f; _ } -> f
  | Some _ | None -> export l (make_cfile l lower)

(* ------------------------------------------------------------------ *)
(* The stackable layer                                                 *)
(* ------------------------------------------------------------------ *)

let iter_cfiles l f = Hashtbl.iter (fun _ cf -> f cf) l.l_files

let make ?(node = "local") ?domain ?(embedded = false) ~vmm ~name () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let l =
    {
      l_name = name;
      l_domain = domain;
      l_vmm = vmm;
      l_over = Sp_core.Over_one.create ~name;
      l_channels = Sp_vm.Pager_lib.create ();
      l_files = Hashtbl.create 16;
    }
  in
  Sp_core.Over_one.stackable l.l_over ~sfs_type:"coherency" ~domain
    ~exten:[ Layer l ]
    ~wrap:(file_of l)
    ~forget:(fun lower ->
      match Hashtbl.find_opt l.l_files lower.Sp_core.File.f_id with
      | Some cf ->
          sweep l cf `Flush;
          Sp_vm.Pager_lib.destroy_key l.l_channels ~key:cf.key;
          Hashtbl.remove l.l_files lower.Sp_core.File.f_id
      | None -> ())
    ~sync:(fun () -> iter_cfiles l (fun cf -> sync_cfile l cf))
    ~drop_caches:(fun () ->
      (* Evict, don't just flush: the cfile table otherwise grows with
         every file ever touched, which unbounds the heap of a bulk build
         (the million-file scenario).  Evicted state is rebuilt on demand
         at the next open.  Forward down so the whole stack sheds its
         caches. *)
      iter_cfiles l (fun cf ->
          drop_cfile_caches l cf;
          Sp_vm.Pager_lib.destroy_key l.l_channels ~key:cf.key);
      Hashtbl.reset l.l_files;
      Sp_vm.Vmm.drop_caches l.l_vmm;
      Sp_core.Stackable.drop_caches (Sp_core.Over_one.lower l.l_over))
    ~charge_open:(if embedded then ignore else Sp_core.Over_one.charge_open_state)

let creator ?(node = "local") ~vmm () =
  {
    Sp_core.Stackable.cr_type = "coherency";
    cr_create = (fun ~name -> make ~node ~vmm ~name ());
  }

let channel_count sfs = Sp_vm.Pager_lib.channel_count (layer_of sfs).l_channels

let invariant_holds sfs =
  let l = layer_of sfs in
  Hashtbl.fold (fun _ cf ok -> ok && Mrsw.invariant_holds cf.state) l.l_files true

let cached_attrs sfs =
  let l = layer_of sfs in
  Hashtbl.fold
    (fun _ cf n -> if Sp_vm.Attr_cache.cached cf.attrs then n + 1 else n)
    l.l_files 0
