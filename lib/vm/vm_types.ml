type access = Read_only | Read_write

type extent = { ext_offset : int; ext_data : bytes }

type cache_object = {
  c_domain : Sp_obj.Sdomain.t;
  c_label : string;
  c_flush_back : offset:int -> size:int -> extent list;
  c_deny_writes : offset:int -> size:int -> extent list;
  c_write_back : offset:int -> size:int -> extent list;
  c_delete_range : offset:int -> size:int -> unit;
  c_zero_fill : offset:int -> size:int -> unit;
  c_populate : offset:int -> access:access -> bytes -> unit;
  c_destroy : unit -> unit;
  c_exten : Sp_obj.Exten.t list;
}

type pager_object = {
  p_domain : Sp_obj.Sdomain.t;
  p_label : string;
  p_page_in : offset:int -> size:int -> access:access -> bytes;
  p_page_out : offset:int -> bytes -> unit;
  p_write_out : offset:int -> bytes -> unit;
  p_sync : offset:int -> bytes -> unit;
  p_sync_v : extent list -> unit;
  p_done_with : unit -> unit;
  p_exten : Sp_obj.Exten.t list;
}

(* Per-extent [p_sync] semantics over a vectored batch: the default
   [p_sync_v] for pagers with no smarter clustering of their own. *)
let sync_each sync extents =
  List.iter (fun e -> sync ~offset:e.ext_offset e.ext_data) extents

let extents_bytes extents =
  List.fold_left (fun acc e -> acc + Bytes.length e.ext_data) 0 extents

type cache_rights = { cr_key : string; cr_channel_id : int }

type cache_manager = {
  cm_id : string;
  cm_domain : Sp_obj.Sdomain.t;
  cm_connect : key:string -> pager_object -> cache_object;
}

type memory_object = {
  m_domain : Sp_obj.Sdomain.t;
  m_label : string;
  m_bind : cache_manager -> access -> cache_rights;
  m_get_length : unit -> int;
  m_set_length : int -> unit;
}

type fs_pager_ops = {
  fp_get_attr : unit -> Attr.t;
  fp_set_attr : Attr.t -> unit;
  fp_attr_sync : Attr.t -> unit;
}

type fs_cache_ops = {
  fc_invalidate_attr : unit -> unit;
  fc_write_back_attr : unit -> Attr.t option;
  fc_populate_attr : Attr.t -> unit;
}

type Sp_obj.Exten.t += Fs_pager of fs_pager_ops | Fs_cache of fs_cache_ops

let narrow_fs_pager p =
  Sp_obj.Exten.narrow p.p_exten (function Fs_pager ops -> Some ops | _ -> None)

let narrow_fs_cache c =
  Sp_obj.Exten.narrow c.c_exten (function Fs_cache ops -> Some ops | _ -> None)

let coherency_call ~op domain f =
  Sp_sim.Metrics.incr_coherency_actions ();
  Sp_obj.Door.call ~op domain f

let flush_back c ~offset ~size =
  coherency_call ~op:"cache.flush_back" c.c_domain (fun () ->
      c.c_flush_back ~offset ~size)

let deny_writes c ~offset ~size =
  coherency_call ~op:"cache.deny_writes" c.c_domain (fun () ->
      c.c_deny_writes ~offset ~size)

let write_back c ~offset ~size =
  coherency_call ~op:"cache.write_back" c.c_domain (fun () ->
      c.c_write_back ~offset ~size)

let delete_range c ~offset ~size =
  coherency_call ~op:"cache.delete_range" c.c_domain (fun () ->
      c.c_delete_range ~offset ~size)

let zero_fill c ~offset ~size =
  Sp_obj.Door.call ~op:"cache.zero_fill" c.c_domain (fun () ->
      c.c_zero_fill ~offset ~size)

let populate c ~offset ~access data =
  Sp_obj.Door.call ~op:"cache.populate" c.c_domain (fun () ->
      c.c_populate ~offset ~access data)

let destroy_cache c = Sp_obj.Door.call ~op:"cache.destroy" c.c_domain c.c_destroy

(* Pager traffic is data-bearing: it rides the bulk path
   ([Door.data_call] + one [charge_transfer] per crossing).  Historically
   this payload was unaccounted, so the disabled-path fallback charges
   nothing ([~fallback:false]). *)
let page_in p ~offset ~size ~access =
  Sp_sim.Metrics.incr_page_ins ();
  let data =
    Sp_obj.Door.data_call ~op:"pager.page_in" p.p_domain (fun () ->
        p.p_page_in ~offset ~size ~access)
  in
  Sp_obj.Door.charge_transfer ~fallback:false p.p_domain (Bytes.length data);
  data

let page_out p ~offset data =
  Sp_sim.Metrics.incr_page_outs ();
  Sp_obj.Door.charge_transfer ~fallback:false p.p_domain (Bytes.length data);
  Sp_obj.Door.data_call ~op:"pager.page_out" p.p_domain (fun () ->
      p.p_page_out ~offset data)

let write_out p ~offset data =
  Sp_sim.Metrics.incr_page_outs ();
  Sp_obj.Door.charge_transfer ~fallback:false p.p_domain (Bytes.length data);
  Sp_obj.Door.data_call ~op:"pager.write_out" p.p_domain (fun () ->
      p.p_write_out ~offset data)

let sync p ~offset data =
  Sp_sim.Metrics.incr_page_outs ();
  Sp_obj.Door.charge_transfer ~fallback:false p.p_domain (Bytes.length data);
  Sp_obj.Door.data_call ~op:"pager.sync" p.p_domain (fun () -> p.p_sync ~offset data)

(* One vectored crossing pushes a whole run of coalesced dirty extents:
   one door call, one transfer charge, one [page_outs] count per batch. *)
let sync_v p extents =
  if extents <> [] then begin
    Sp_sim.Metrics.incr_page_outs ();
    Sp_obj.Door.charge_transfer ~fallback:false p.p_domain (extents_bytes extents);
    Sp_obj.Door.data_call ~op:"pager.sync_v" p.p_domain (fun () -> p.p_sync_v extents)
  end

let done_with p = Sp_obj.Door.call ~op:"pager.done_with" p.p_domain p.p_done_with

let bind m manager access =
  Sp_obj.Door.call ~op:"mem.bind" m.m_domain (fun () -> m.m_bind manager access)

let get_length m = Sp_obj.Door.call ~op:"mem.get_length" m.m_domain m.m_get_length

let set_length m len =
  Sp_obj.Door.call ~op:"mem.set_length" m.m_domain (fun () -> m.m_set_length len)

let fs_get_attr p ops =
  Sp_sim.Metrics.incr_attr_fetches ();
  Sp_obj.Door.call ~op:"fs_pager.get_attr" p.p_domain ops.fp_get_attr

let fs_set_attr p ops attr =
  Sp_obj.Door.call ~op:"fs_pager.set_attr" p.p_domain (fun () -> ops.fp_set_attr attr)

let fs_attr_sync p ops attr =
  Sp_obj.Door.call ~op:"fs_pager.attr_sync" p.p_domain (fun () ->
      ops.fp_attr_sync attr)

let fs_invalidate_attr c ops =
  Sp_obj.Door.call ~op:"fs_cache.invalidate_attr" c.c_domain ops.fc_invalidate_attr

let fs_write_back_attr c ops =
  Sp_obj.Door.call ~op:"fs_cache.write_back_attr" c.c_domain ops.fc_write_back_attr

let fs_populate_attr c ops attr =
  Sp_obj.Door.call ~op:"fs_cache.populate_attr" c.c_domain (fun () ->
      ops.fc_populate_attr attr)

let page_size = 4096
let page_index off = off / page_size

let pages_covering ~offset ~size =
  if size <= 0 then []
  else
    let first = page_index offset in
    let last = page_index (offset + size - 1) in
    List.init (last - first + 1) (fun i -> first + i)
