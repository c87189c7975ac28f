(* An LRU name cache with negative entries.

   Entries live in [table] and on an intrusive doubly linked recency
   list (oldest first, behind the [lru] sentinel): a touch moves the
   entry to the newest end and eviction pops the oldest, both O(1) —
   exact LRU.  A negative entry records that a name was unbound when
   last walked, so repeated failing lookups also skip the context chain.

   Coherence: the cache subscribes to {!Name_coherence} at creation.
   Component broadcasts (bind/rebind/unbind anywhere) drop every entry
   whose path mentions the component, found through the reverse index
   [by_comp] (component -> key -> entry) in O(matches); the restart
   fence is checked lazily — an entry stamped under an older epoch is
   discarded on lookup, so objects minted from a dead domain
   incarnation never hit. *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  negative_hits : int;
}

type entry = {
  key : string;
  value : (Context.obj, string) result;  (* [Error msg]: cached Unbound *)
  components : string list;
  epoch : int;  (* Name_coherence fence epoch at insert *)
  mutable older : entry;  (* recency neighbours; the sentinel closes the ring *)
  mutable newer : entry;
}

type t = {
  table : (string, entry) Hashtbl.t;
  by_comp : (string, (string, entry) Hashtbl.t) Hashtbl.t;
  lru : entry;  (* sentinel: [lru.newer] is the oldest entry *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable negative_hits : int;
}

let unlink e =
  e.older.newer <- e.newer;
  e.newer.older <- e.older

let link_newest t e =
  e.newer <- t.lru;
  e.older <- t.lru.older;
  t.lru.older.newer <- e;
  t.lru.older <- e

let drop t e =
  Hashtbl.remove t.table e.key;
  unlink e;
  List.iter
    (fun c ->
      match Hashtbl.find_opt t.by_comp c with
      | Some keys ->
          Hashtbl.remove keys e.key;
          if Hashtbl.length keys = 0 then Hashtbl.remove t.by_comp c
      | None -> ())
    e.components

let invalidate_entry t e =
  drop t e;
  t.invalidations <- t.invalidations + 1

let drop_component t c =
  match Hashtbl.find_opt t.by_comp c with
  | None -> ()
  | Some keys ->
      List.iter (invalidate_entry t) (Hashtbl.fold (fun _ e acc -> e :: acc) keys [])

let create ~capacity () =
  let rec lru =
    { key = ""; value = Error ""; components = []; epoch = 0; older = lru; newer = lru }
  in
  let t =
    {
      table = Hashtbl.create capacity;
      by_comp = Hashtbl.create capacity;
      lru;
      capacity;
      hits = 0;
      misses = 0;
      invalidations = 0;
      negative_hits = 0;
    }
  in
  Name_coherence.subscribe (drop_component t);
  t

let touch t e =
  unlink e;
  link_newest t e

let insert t key components value =
  if Hashtbl.length t.table >= t.capacity && t.lru.newer != t.lru then drop t t.lru.newer;
  (* a concurrent miss on the same name may have inserted it meanwhile *)
  Option.iter (drop t) (Hashtbl.find_opt t.table key);
  let rec e =
    { key; value; components; epoch = Name_coherence.epoch (); older = e; newer = e }
  in
  Hashtbl.replace t.table key e;
  link_newest t e;
  List.iter
    (fun c ->
      let keys =
        match Hashtbl.find_opt t.by_comp c with
        | Some keys -> keys
        | None ->
            let keys = Hashtbl.create 1 in
            Hashtbl.replace t.by_comp c keys;
            keys
      in
      Hashtbl.replace keys key e)
    components

let trace_instant kind key =
  if Sp_trace.enabled () then
    Sp_trace.instant ~name:("ncache." ^ kind) ~args:[ ("name", key) ] ()

let resolve t ?principal root name =
  let key = Sname.to_string name in
  let live =
    match Hashtbl.find_opt t.table key with
    | Some e when e.epoch = Name_coherence.epoch () -> Some e
    | Some e ->
        (* cached before the last supervised restart: fence it out *)
        invalidate_entry t e;
        None
    | None -> None
  in
  match live with
  | Some ({ value = Ok o; _ } as e) ->
      touch t e;
      t.hits <- t.hits + 1;
      Sp_sim.Metrics.incr_name_cache_hits ();
      trace_instant "hit" key;
      o
  | Some ({ value = Error msg; _ } as e) ->
      touch t e;
      t.negative_hits <- t.negative_hits + 1;
      Sp_sim.Metrics.incr_name_cache_negative_hits ();
      trace_instant "neg" key;
      raise (Context.Unbound msg)
  | None -> (
      t.misses <- t.misses + 1;
      Sp_sim.Metrics.incr_name_cache_misses ();
      trace_instant "miss" key;
      let components = Sname.components name in
      match Context.resolve ?principal root name with
      | o ->
          insert t key components (Ok o);
          o
      | exception Context.Unbound msg ->
          insert t key components (Error msg);
          raise (Context.Unbound msg))

let invalidate t name =
  Option.iter (invalidate_entry t) (Hashtbl.find_opt t.table (Sname.to_string name))

let clear t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.by_comp;
  t.lru.older <- t.lru;
  t.lru.newer <- t.lru

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    negative_hits = t.negative_hits;
  }
