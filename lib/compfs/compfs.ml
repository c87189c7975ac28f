module V = Sp_vm.Vm_types

let ps = V.page_size
let magic = 0x43_4d_50_46l (* "CMPF" *)
let chunk_magic = 0xc4a9

(* Container layout: page 0 = header (magic, logical_len, tail); from byte
   [ps] a log of chunks, each [u16 magic, u16 page_idx, u32 clen, data]. *)
let chunk_header = 8

type centry = {
  e_key : string;
  e_lower : Sp_core.File.t;
  mutable e_pager : V.pager_object option;  (* the P3 of Figure 6 *)
  idx : (int, int * int) Hashtbl.t;  (* logical page -> (data offset, clen) *)
  mutable logical_len : int;
  mutable tail : int;  (* end of the chunk log *)
  mutable header_dirty : bool;
  mutable stale : bool;  (* container changed under us (coherent mode) *)
  e_state : Sp_coherency.Mrsw.t;  (* MRSW over our upper channels *)
  mutable self_op : bool;
      (* a container operation of our own is in flight: coherency echoes
         it triggers below must not mark us stale *)
  mutable e_file : Sp_core.File.t option;  (* set once [build_file] made it *)
}

type layer = {
  l_name : string;
  l_domain : Sp_obj.Sdomain.t;
  l_vmm : Sp_vm.Vmm.t;
  l_coherent : bool;
  l_over : Sp_core.Over_one.t;
  l_channels : Sp_vm.Pager_lib.t;
  l_files : (string, centry) Hashtbl.t;
      (* by lower file id: the layer's one table of files, read by opens,
         [sync] and [drop_caches] *)
  l_lock : Sp_sched.Mutex.t;
      (* Container operations are multi-step read-modify-write cycles
         (append, compact, rescan) whose container I/O suspends the task
         under [Sp_sched]; two concurrent syncs — or a sync and a cache
         eviction — would interleave those cycles and corrupt the chunk
         log.  One reentrant lock for the whole instance, not one per
         file: an eviction inside a locked section can push another
         file's dirty page back through this layer, and per-file locks
         would deadlock on that re-entry. *)
}

type Sp_obj.Exten.t += Layer of layer

let layer_of =
  Sp_core.Stackable.narrow ~what:"a compfs layer" (function
    | Layer l -> Some l
    | _ -> None)

let locked l f = Sp_sched.Mutex.with_lock l.l_lock f

(* ------------------------------------------------------------------ *)
(* Container access: plain file interface (Figure 5) or pager channel
   (Figure 6)                                                          *)
(* ------------------------------------------------------------------ *)

let container_read l e ~pos ~len =
  match e.e_pager with
  | Some pager when l.l_coherent ->
      V.page_in pager ~offset:pos ~size:len ~access:V.Read_only
  | _ -> Sp_core.File.read e.e_lower ~pos ~len

let container_write l e ~pos data =
  match e.e_pager with
  | Some pager when l.l_coherent ->
      e.self_op <- true;
      Fun.protect ~finally:(fun () -> e.self_op <- false) @@ fun () ->
      (* Extend the container length before pushing: lower layers are
         entitled to clip page traffic beyond their file length. *)
      let mem = e.e_lower.Sp_core.File.f_mem in
      let needed = pos + Bytes.length data in
      if V.get_length mem < needed then V.set_length mem needed;
      (* write_out, not page_out: COMPFS's in-memory index is cached state
         derived from the container, so it must stay registered as a
         read-only holder to receive revocations (Figure 6). *)
      V.write_out pager ~offset:pos data
  | _ -> ignore (Sp_core.File.write e.e_lower ~pos data)

let container_truncate l e len =
  match e.e_pager with
  | Some _ when l.l_coherent ->
      e.self_op <- true;
      Fun.protect
        ~finally:(fun () -> e.self_op <- false)
        (fun () -> V.set_length e.e_lower.Sp_core.File.f_mem len)
  | _ -> Sp_core.File.truncate e.e_lower len

(* ------------------------------------------------------------------ *)
(* Header and index                                                    *)
(* ------------------------------------------------------------------ *)

let write_header l e =
  let b = Bytes.make 24 '\000' in
  Bytes.set_int32_le b 0 magic;
  Bytes.set_int64_le b 4 (Int64.of_int e.logical_len);
  Bytes.set_int64_le b 12 (Int64.of_int e.tail);
  container_write l e ~pos:0 b;
  e.header_dirty <- false

(* A chunk is valid iff its payload actually decompresses to at most a
   page.  Cheap structural checks alone are not enough: a crash can
   commit the page holding a chunk's header while the page holding its
   payload dies with a killed layer incarnation, leaving a
   plausible-looking header over garbage. *)
let chunk_payload_ok compressed =
  match Lz.decompress compressed with
  | d -> Bytes.length d <= ps
  | exception Invalid_argument _ -> false

(* Roll-forward recovery over the chunk log, like journal replay: scan
   validates every chunk and truncates the log at the first invalid one.
   The synced prefix is always consistent (the lower journal commits a
   sync atomically), so anything past the tear is unsynced data a crash
   is allowed to lose; truncating re-exposes the newest surviving chunk
   of each page.  Subsequent appends overwrite the torn region. *)
let scan_index l e =
  Hashtbl.reset e.idx;
  let rec go pos =
    if pos + chunk_header <= e.tail then begin
      let h = container_read l e ~pos ~len:chunk_header in
      let ok =
        Bytes.length h >= chunk_header
        && Bytes.get_uint16_le h 0 = chunk_magic
        &&
        let clen = Int32.to_int (Bytes.get_int32_le h 4) in
        clen >= 0
        && pos + chunk_header + clen <= e.tail
        && chunk_payload_ok
             (container_read l e ~pos:(pos + chunk_header) ~len:clen)
      in
      if ok then begin
        let page = Bytes.get_uint16_le h 2 in
        let clen = Int32.to_int (Bytes.get_int32_le h 4) in
        Hashtbl.replace e.idx page (pos + chunk_header, clen);
        go (pos + chunk_header + clen)
      end
      else begin
        e.tail <- pos;
        e.header_dirty <- true
      end
    end
  in
  go ps;
  e.stale <- false

let load_header l e =
  let h = container_read l e ~pos:0 ~len:24 in
  if Bytes.length h < 24 || Bytes.get_int32_le h 0 <> magic then
    raise (Sp_core.Fserr.Io_error (e.e_key ^ ": not a COMPFS container"));
  e.logical_len <- Int64.to_int (Bytes.get_int64_le h 4);
  e.tail <- Int64.to_int (Bytes.get_int64_le h 12);
  scan_index l e

(* Flush every upper cache of this file and drop its pages: the container
   changed underneath us, so decompressed data is stale. *)
let invalidate_upper l e =
  let channels = Sp_vm.Pager_lib.live_channels_for_key l.l_channels ~key:e.e_key in
  let size = ((e.logical_len / ps) + 1) * ps in
  List.iter
    (fun ch -> V.delete_range ch.Sp_vm.Pager_lib.ch_cache ~offset:0 ~size)
    channels;
  Sp_coherency.Mrsw.clear e.e_state

let refresh_if_stale l e =
  if e.stale then begin
    invalidate_upper l e;
    load_header l e
  end

(* ------------------------------------------------------------------ *)
(* Chunk I/O                                                           *)
(* ------------------------------------------------------------------ *)

let read_logical_page l e page =
  match Hashtbl.find_opt e.idx page with
  | None -> Bytes.make ps '\000'
  | Some (off, clen) ->
      let compressed = container_read l e ~pos:off ~len:clen in
      Sp_obj.Door.charge_cpu (Lz.work_units clen);
      (* The scan validated this chunk, so a failure here means the
         container rotted underneath us mid-run: fail loudly with the
         stack's I/O error, never leak [Invalid_argument]. *)
      let data =
        try Lz.decompress compressed
        with Invalid_argument msg ->
          raise (Sp_core.Fserr.Io_error (e.e_key ^ ": " ^ msg))
      in
      if Bytes.length data = ps then data
      else begin
        let padded = Bytes.make ps '\000' in
        Bytes.blit data 0 padded 0 (min ps (Bytes.length data));
        padded
      end

(* Append [page]'s chunk: the page of [data] at [pos], compressed where
   it lies ([data] may be a writeback payload, lent for the call). *)
let append_chunk l e page data ~pos =
  Sp_obj.Door.charge_cpu (Lz.work_units ps);
  let compressed = Lz.compress_sub data ~pos ~len:ps in
  let clen = Bytes.length compressed in
  let h = Bytes.make chunk_header '\000' in
  Bytes.set_uint16_le h 0 chunk_magic;
  Bytes.set_uint16_le h 2 page;
  Bytes.set_int32_le h 4 (Int32.of_int clen);
  let at = e.tail in
  container_write l e ~pos:at (Bytes.cat h compressed);
  Hashtbl.replace e.idx page (at + chunk_header, clen);
  e.tail <- at + chunk_header + clen;
  e.header_dirty <- true

let write_logical l e ~offset data =
  let len = Bytes.length data in
  let pages = V.pages_covering ~offset ~size:len in
  List.iter
    (fun page ->
      if page * ps >= offset && (page + 1) * ps <= offset + len then
        append_chunk l e page data ~pos:((page * ps) - offset)
      else begin
        (* Partial page: read-modify-write. *)
        let existing = read_logical_page l e page in
        let from = max offset (page * ps) in
        let upto = min (offset + len) ((page + 1) * ps) in
        Bytes.blit data (from - offset) existing (from - (page * ps)) (upto - from);
        append_chunk l e page existing ~pos:0
      end)
    pages

(* Rewrite the chunk log densely: the compaction that realises the disk
   savings. *)
let compact l e =
  let live =
    List.sort compare (Hashtbl.fold (fun page loc acc -> (page, loc) :: acc) e.idx [])
  in
  let chunks =
    List.map
      (fun (page, (off, clen)) -> (page, container_read l e ~pos:off ~len:clen))
      live
  in
  let cursor = ref ps in
  Hashtbl.reset e.idx;
  List.iter
    (fun (page, compressed) ->
      let clen = Bytes.length compressed in
      let h = Bytes.make chunk_header '\000' in
      Bytes.set_uint16_le h 0 chunk_magic;
      Bytes.set_uint16_le h 2 page;
      Bytes.set_int32_le h 4 (Int32.of_int clen);
      container_write l e ~pos:!cursor (Bytes.cat h compressed);
      Hashtbl.replace e.idx page (!cursor + chunk_header, clen);
      cursor := !cursor + chunk_header + clen)
    chunks;
  e.tail <- !cursor;
  write_header l e;
  container_truncate l e !cursor

(* ------------------------------------------------------------------ *)
(* Acting as cache manager for the container (Figure 6)                *)
(* ------------------------------------------------------------------ *)

let lower_cache_object l e =
  let mark () = if not e.self_op then e.stale <- true in
  let gone ~offset:_ ~size:_ =
    (* We hold no dirty container data (appends are written through), but
       our decompressed view is now suspect. *)
    mark ();
    []
  in
  {
    V.c_domain = l.l_domain;
    c_label = "compfs-cache:" ^ e.e_key;
    c_flush_back = gone;
    c_deny_writes = (fun ~offset:_ ~size:_ -> []);
    c_write_back = (fun ~offset:_ ~size:_ -> []);
    c_delete_range = (fun ~offset:_ ~size:_ -> mark ());
    c_zero_fill = (fun ~offset:_ ~size:_ -> mark ());
    c_populate = (fun ~offset:_ ~access:_ _ -> mark ());
    c_destroy =
      (fun () ->
        Sp_vm.Pager_lib.destroy_key l.l_channels ~key:e.e_key;
        Hashtbl.remove l.l_files e.e_lower.Sp_core.File.f_id);
    c_exten = [];
  }

(* The cache manager of one file's channel to its container. *)
let manager l e =
  {
    V.cm_id = "compfs:" ^ l.l_name;
    cm_domain = l.l_domain;
    cm_connect =
      (fun ~key:_ pager ->
        e.e_pager <- Some pager;
        lower_cache_object l e);
  }

(* ------------------------------------------------------------------ *)
(* Exported files                                                      *)
(* ------------------------------------------------------------------ *)

let get_attr l e =
  locked l @@ fun () ->
  refresh_if_stale l e;
  let a = Sp_core.File.stat e.e_lower in
  Sp_vm.Attr.with_len a e.logical_len

let write_down l e x = write_logical l e ~offset:x.V.ext_offset x.V.ext_data

let truncate_entry l e len =
  locked l @@ fun () ->
  refresh_if_stale l e;
  let old = e.logical_len in
  Sp_coherency.Mrsw.shrink e.e_state ~channels:l.l_channels ~key:e.e_key ~old ~len
    ~write_down:(write_down l e);
  if len < old then begin
    let keep = (len + ps - 1) / ps in
    Hashtbl.iter
      (fun page _ -> if page >= keep then Hashtbl.remove e.idx page)
      (Hashtbl.copy e.idx);
    if len mod ps <> 0 && Hashtbl.mem e.idx (len / ps) then begin
      let edge = read_logical_page l e (len / ps) in
      Bytes.fill edge (len mod ps) (ps - (len mod ps)) '\000';
      append_chunk l e (len / ps) edge ~pos:0
    end
  end;
  if len <> e.logical_len then begin
    e.logical_len <- len;
    e.header_dirty <- true
  end

(* Assemble [size] bytes at [offset] from decompressed logical pages. *)
let read_logical l e ~offset ~size =
  let out = Bytes.create size in
  let rec go cursor =
    if cursor < size then begin
      let off = offset + cursor in
      let page = V.page_index off in
      let data = read_logical_page l e page in
      let in_page = off - (page * ps) in
      let n = min (size - cursor) (ps - in_page) in
      Bytes.blit data in_page out cursor n;
      go (cursor + n)
    end
  in
  go 0;
  out

let make_entry l (lower : Sp_core.File.t) ~fresh =
  let e =
    {
      e_key = Printf.sprintf "compfs:%s:%s" l.l_name lower.Sp_core.File.f_id;
      e_lower = lower;
      e_pager = None;
      idx = Hashtbl.create 16;
      logical_len = 0;
      tail = ps;
      header_dirty = false;
      stale = false;
      e_state = Sp_coherency.Mrsw.create ();
      self_op = false;
      e_file = None;
    }
  in
  Hashtbl.replace l.l_files lower.Sp_core.File.f_id e;
  if l.l_coherent then
    ignore (V.bind lower.Sp_core.File.f_mem (manager l e) V.Read_write);
  (try if fresh then write_header l e else load_header l e
   with ex ->
     (* Unreadable container: forget the half-built entry so a later
        open retries (or remove can clean up) instead of syncing
        fabricated state. *)
     Hashtbl.remove l.l_files lower.Sp_core.File.f_id;
     raise ex);
  e

let sync_entry l e =
  locked l @@ fun () ->
  Sp_coherency.Mrsw.sweep e.e_state ~channels:l.l_channels `Write_back
    ~write_down:(write_down l e);
  compact l e

(* The layer lock is taken, and a stale view refreshed, around the whole
   grant or push section: revoked extents land in the chunk log, so they
   must run under the lock like any other container update. *)
let build_file l ~fresh lower =
  let e = make_entry l lower ~fresh in
  let stat () = get_attr l e in
  let set_attr = Sp_core.File.set_attr e.e_lower in
  let fs_pager =
    {
      V.fp_get_attr = stat;
      fp_set_attr = set_attr;
      fp_attr_sync =
        (fun a ->
          locked l @@ fun () ->
          let len = a.Sp_vm.Attr.len in
          if len < e.logical_len then truncate_entry l e len
          else if len > e.logical_len then begin
            e.logical_len <- len;
            e.header_dirty <- true
          end;
          set_attr a);
    }
  in
  let f =
    Sp_coherency.Mrsw.export_file ~vmm:l.l_vmm ~domain:l.l_domain ~channels:l.l_channels
      ~key:e.e_key
      ~around:
        {
          Sp_coherency.Mrsw.around =
            (fun f ->
              locked l @@ fun () ->
              refresh_if_stale l e;
              f ());
        }
      ~produce:(fun ~offset ~size ~access:_ -> read_logical l e ~offset ~size)
      ~store:(fun ~retain:_ ~offset data -> write_logical l e ~offset data)
      ~fs_pager:(fun ~id:_ -> fs_pager)
      ~stat
      ~length:(fun () ->
        locked l @@ fun () ->
        refresh_if_stale l e;
        e.logical_len)
      ~set_attr
      ~grow:(fun len ->
        if len > e.logical_len then begin
          e.logical_len <- len;
          e.header_dirty <- true
        end)
      ~truncate:(truncate_entry l e)
      ~sync:(fun () ->
        sync_entry l e;
        Sp_core.File.sync e.e_lower)
      e.e_state
  in
  e.e_file <- Some f;
  f

(* The file [l_files] holds for this very lower object, once its build
   has finished: [make_entry] enters a file before its header loads. *)
let built l (lower : Sp_core.File.t) =
  match Hashtbl.find_opt l.l_files lower.Sp_core.File.f_id with
  | Some { e_lower; e_file = Some f; _ } when e_lower == lower -> Some f
  | Some _ | None -> None

(* A hit takes no lock.  A miss takes it, so it waits out a container
   operation in flight, and looks again: another open may have built the
   file meanwhile. *)
let wrap_file l ~fresh lower =
  match built l lower with
  | Some f -> f
  | None -> (
      locked l @@ fun () ->
      match built l lower with Some f -> f | None -> build_file l ~fresh lower)

(* ------------------------------------------------------------------ *)
(* The stackable layer                                                 *)
(* ------------------------------------------------------------------ *)

let make ?(node = "local") ?domain ?(coherent = true) ~vmm ~name () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let l =
    {
      l_name = name;
      l_domain = domain;
      l_vmm = vmm;
      l_coherent = coherent;
      l_over = Sp_core.Over_one.create ~name;
      l_channels = Sp_vm.Pager_lib.create ();
      l_files = Hashtbl.create 16;
      l_lock = Sp_sched.Mutex.create ("compfs:" ^ name);
    }
  in
  (* Snapshot the entries first: sync_entry yields, and a concurrent open
     may add files while we iterate. *)
  let entries () = Hashtbl.fold (fun _ e acc -> e :: acc) l.l_files [] in
  Sp_core.Over_one.stackable l.l_over ~sfs_type:"compfs" ~domain
    ~exten:[ Layer l ] ~wrap:(wrap_file l)
    ~forget:(fun lower ->
      (match Hashtbl.find_opt l.l_files lower.Sp_core.File.f_id with
      | Some e -> Sp_vm.Pager_lib.destroy_key l.l_channels ~key:e.e_key
      | None -> ());
      Hashtbl.remove l.l_files lower.Sp_core.File.f_id)
    ~sync:(fun () -> List.iter (sync_entry l) (entries ()))
    ~drop_caches:(fun () ->
      List.iter
        (fun e ->
          sync_entry l e;
          e.stale <- true)
        (entries ()))
    ~charge_open:Sp_core.Over_one.charge_open_state

let creator ?(node = "local") ?(coherent = true) ~vmm () =
  {
    Sp_core.Stackable.cr_type = "compfs";
    cr_create = (fun ~name -> make ~node ~coherent ~vmm ~name ());
  }

let entry_at sfs path =
  let l = layer_of sfs in
  let lf = Sp_core.Stackable.open_file (Sp_core.Over_one.lower l.l_over) path in
  match Hashtbl.find_opt l.l_files lf.Sp_core.File.f_id with
  | Some e -> (l, e)
  | None ->
      ignore (wrap_file l ~fresh:false lf);
      (l, Hashtbl.find l.l_files lf.Sp_core.File.f_id)

let container_bytes sfs path =
  let l, e = entry_at sfs path in
  ignore l;
  (Sp_core.File.stat e.e_lower).Sp_vm.Attr.len

let logical_bytes sfs path =
  let l, e = entry_at sfs path in
  locked l @@ fun () ->
  refresh_if_stale l e;
  e.logical_len
