type channel = {
  ch_id : int;
  ch_key : string;
  ch_manager_id : string;
  ch_manager_domain : Sp_obj.Sdomain.t;
  ch_pager : Vm_types.pager_object;
  ch_cache : Vm_types.cache_object;
}

(* Two indexes over the live channels: by id, and by key — each key
   maps to its channels in ascending id (bind) order, so a bind finds
   its (manager, key) slot in the key's short list and every per-op
   lookup costs O(channels of that key), never O(all channels). *)
type t = {
  mutable next_id : int;
  by_id : (int, channel) Hashtbl.t;
  by_key : (string, channel list) Hashtbl.t;
}

let create () = { next_id = 0; by_id = Hashtbl.create 16; by_key = Hashtbl.create 16 }

let channels_for_key t ~key =
  match Hashtbl.find t.by_key key with chs -> chs | exception Not_found -> []

let find t ~id = Hashtbl.find_opt t.by_id id

let remove t id =
  match Hashtbl.find t.by_id id with
  | exception Not_found -> ()
  | ch -> (
      Hashtbl.remove t.by_id id;
      match List.filter (fun c -> c.ch_id <> id) (channels_for_key t ~key:ch.ch_key) with
      | [] -> Hashtbl.remove t.by_key ch.ch_key
      | rest -> Hashtbl.replace t.by_key ch.ch_key rest)

let bind t ~key ~make_pager (manager : Vm_types.cache_manager) =
  let existing =
    match
      List.find_opt
        (fun ch -> String.equal ch.ch_manager_id manager.cm_id)
        (channels_for_key t ~key)
    with
    | Some ch when not (Sp_obj.Sdomain.alive ch.ch_cache.Vm_types.c_domain) ->
        (* Same manager identity, dead serving domain: the manager's
           previous incarnation crashed and a restarted one is binding
           again.  Fence the stale channel and connect afresh. *)
        remove t ch.ch_id;
        None
    | found -> found
  in
  match existing with
  | Some ch -> { Vm_types.cr_key = key; cr_channel_id = ch.ch_id }
  | None ->
      t.next_id <- t.next_id + 1;
      let id = t.next_id in
      let pager = make_pager ~id in
      let cache =
        Sp_obj.Door.call ~op:"cache_manager.connect" manager.cm_domain (fun () ->
            manager.cm_connect ~key pager)
      in
      let ch =
        {
          ch_id = id;
          ch_key = key;
          ch_manager_id = manager.cm_id;
          ch_manager_domain = manager.cm_domain;
          ch_pager = pager;
          ch_cache = cache;
        }
      in
      Hashtbl.replace t.by_id id ch;
      (* [id] is the largest yet: appending keeps the list ascending. *)
      Hashtbl.replace t.by_key key (channels_for_key t ~key @ [ ch ]);
      { Vm_types.cr_key = key; cr_channel_id = ch.ch_id }

let channels t =
  List.sort
    (fun a b -> Int.compare a.ch_id b.ch_id)
    (Hashtbl.fold (fun _ ch acc -> ch :: acc) t.by_id [])

(* Incarnation fencing: a channel whose cache object is served by a
   fail-stopped domain belongs to a pre-crash incarnation of the cache
   manager.  Calling back into it would raise [Dead_domain] inside the
   (still-live) pager's own operation, so the channel is dropped instead
   and its holder state is forgotten by the caller. *)
let cache_if_live t ch =
  if Sp_obj.Sdomain.alive ch.ch_cache.Vm_types.c_domain then Some ch.ch_cache
  else begin
    remove t ch.ch_id;
    if Sp_trace.enabled () then
      Sp_trace.instant ~name:"pager.fence"
        ~args:[ ("cache", ch.ch_cache.Vm_types.c_label); ("key", ch.ch_key) ]
        ();
    None
  end

let live_cache t ~id =
  match find t ~id with None -> None | Some ch -> cache_if_live t ch

let live_channels_for_key t ~key =
  let chs = channels_for_key t ~key in
  (* every attribute fetch lands here: with all domains alive, hand back
     the indexed list itself rather than a filtered copy *)
  if List.for_all (fun ch -> Sp_obj.Sdomain.alive ch.ch_cache.Vm_types.c_domain) chs
  then chs
  else List.filter (fun ch -> Option.is_some (cache_if_live t ch)) chs

let destroy_key t ~key =
  List.iter
    (fun ch ->
      Vm_types.destroy_cache ch.ch_cache;
      remove t ch.ch_id)
    (channels_for_key t ~key)

(* Tear down every channel (drop_caches): the cache objects capture the
   manager-side per-file state, so leaving dead channels behind pins it.
   Destroys cascade manager-side ([c_destroy] evicts the holder), so the
   table is cleared first to keep reentrant callbacks away from it. *)
let destroy_all t =
  let chs = channels t in
  Hashtbl.reset t.by_id;
  Hashtbl.reset t.by_key;
  List.iter (fun ch -> Vm_types.destroy_cache ch.ch_cache) chs

let channel_count t = Hashtbl.length t.by_id
