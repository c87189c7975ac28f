(* The VMM: a per-node page cache over external pagers (paper §3.3.1).

   Page buffers have one owner.  A page keeps the buffer a one-page
   [page_in] returned (the pager gave it up, see [Vm_types]), and hands
   its buffer down to a writeback call ([sync], [sync_v], and the
   extents of [flush_back]/[deny_writes]/[write_back]) instead of a
   copy.  A lent buffer never changes again: while [lent] is non-zero
   the page copies its buffer before the next mutation ([write], a
   partial [zero_fill]) and owns the copy.  [push_dirty] takes its loans
   back when its call returns; extents handed to a coherency action stay
   out until the next write copies the page.  A write landing while its
   page is being written back (a [Disk.write] waits for the elevator
   before it stores) therefore never reaches the store through the
   buffer the push is still reading. *)

let ps = Vm_types.page_size

(* Every resident page of registered entries sits on one intrusive
   doubly linked recency ring per VMM (oldest first, behind the [lru]
   sentinel): a touch moves the page to the newest end and eviction pops
   the oldest, both O(1) — exact LRU.  A page records its entry and
   index so the victim can leave its table without a search.  Pages off
   the ring (retired, or held by an entry [drop_caches] already
   forgot) link to themselves. *)
type page = {
  mutable data : bytes;
  mutable lent : int;  (* loans of [data] still out: copy before mutating *)
  mutable mode : Vm_types.access;
  mutable dirty : bool;
  mutable prefetched : bool;  (* brought in by read-ahead, not yet hit *)
  p_entry : entry;
  p_idx : int;
  mutable older : page;
  mutable newer : page;
}

and entry = {
  e_key : string;
  pages : (int, page) Hashtbl.t;
  mutable pager : Vm_types.pager_object option;
  mutable mapped : int;  (* live mapping count *)
  mutable last_fault : int;  (* page index, for sequential-run detection *)
  mutable ra_window : int;  (* adaptive read-ahead window, in pages *)
  mutable ra_next : int;  (* fault index that continues the run: the first
                             page past the last fetch (prefetched pages
                             absorb intermediate faults, so [last_fault+1]
                             alone would read a sequential run as random) *)
  mutable registered : bool;  (* still in [entries]: only then do its pages
                                 count against the budget and join the ring *)
}

type t = {
  vmm_domain : Sp_obj.Sdomain.t;
  vmm_name : string;
  entries : (string, entry) Hashtbl.t;
  lru : page;  (* sentinel: [lru.newer] is the least recently used page *)
  mutable resident : int;  (* pages on the ring *)
  mutable readahead_pages : int;  (* manual override; 0 = adaptive *)
  mutable adaptive : bool;
  mutable clustered : bool;
  mutable capacity : int option;
  mutable evicted : int;
  mutable evicting : bool;  (* reentrancy guard: page-out of a dirty victim
                               may fault pages back in through lower layers *)
  mutable reconciled_clean : int;
  mutable reconciled_lost : int;
}

type mapping = {
  m_vmm : t;
  m_entry : entry;
  m_mem : Vm_types.memory_object;
  mutable m_live : bool;
}

let new_entry key =
  { e_key = key; pages = Hashtbl.create 16; pager = None; mapped = 0;
    last_fault = min_int; ra_window = 0; ra_next = min_int; registered = true }

let new_page entry idx data mode ~prefetched =
  let rec p =
    { data; lent = 0; mode; dirty = false; prefetched; p_entry = entry; p_idx = idx;
      older = p; newer = p }
  in
  p

(* Hand [page]'s buffer to a pager call without copying it. *)
let lend page =
  page.lent <- page.lent + 1;
  page.data

(* Take back a loan of [buf]; a page that has copied itself since owes
   nothing. *)
let give_back page buf = if page.data == buf then page.lent <- page.lent - 1

(* Make [page.data] safe to mutate: a lent buffer is left to its
   borrowers and the page continues on a copy. *)
let own page =
  if page.lent > 0 then begin
    page.data <- Bytes.copy page.data;
    page.lent <- 0
  end

(* The sentinels' owner: never registered, never holds a page. *)
let nowhere = { (new_entry "") with registered = false }

let create ~node name =
  {
    vmm_domain = Sp_obj.Sdomain.create ~node ("vmm:" ^ name);
    vmm_name = name;
    entries = Hashtbl.create 32;
    lru = new_page nowhere (-1) Bytes.empty Vm_types.Read_only ~prefetched:false;
    resident = 0;
    readahead_pages = 0;
    adaptive = true;
    clustered = true;
    capacity = None;
    evicted = 0;
    evicting = false;
    reconciled_clean = 0;
    reconciled_lost = 0;
  }

let domain t = t.vmm_domain

let entry_for t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = new_entry key in
      Hashtbl.replace t.entries key e;
      e

(* A prefetched page leaving the cache (or being discarded) without ever
   having absorbed a fault was wasted read-ahead. *)
let note_retired (page : page) =
  if page.prefetched then Sp_sim.Metrics.incr_readahead_wasted ()

let link_newest t p =
  p.newer <- t.lru;
  p.older <- t.lru.older;
  t.lru.older.newer <- p;
  t.lru.older <- p;
  t.resident <- t.resident + 1

(* Take [p] off the ring; a page already off it is left alone. *)
let unlink t p =
  if p.newer != p then begin
    p.older.newer <- p.newer;
    p.newer.older <- p.older;
    p.older <- p;
    p.newer <- p;
    t.resident <- t.resident - 1
  end

let touch t p =
  if p.newer != t.lru && p.newer != p then begin
    unlink t p;
    link_newest t p
  end

(* Retire every page of [entry] (teardown paths only). *)
let forget_pages t entry =
  Hashtbl.iter
    (fun _ p ->
      note_retired p;
      unlink t p)
    entry.pages;
  Hashtbl.reset entry.pages

(* Collect modified extents for pages intersecting [offset, offset+size),
   applying [update] to each intersecting page and dropping those for which
   [update] returns [false]. *)
let scan_range t entry ~offset ~size ~collect_dirty ~clear_dirty ~downgrade ~drop =
  let extents = ref [] in
  let doomed = ref [] in
  let visit idx =
    match Hashtbl.find_opt entry.pages idx with
    | None -> ()
    | Some page ->
        if collect_dirty && page.dirty then
          extents := { Vm_types.ext_offset = idx * ps; ext_data = lend page } :: !extents;
        if clear_dirty then page.dirty <- false;
        if downgrade && page.mode = Vm_types.Read_write then
          page.mode <- Vm_types.Read_only;
        if drop then begin
          note_retired page;
          doomed := page :: !doomed
        end
  in
  List.iter visit (Vm_types.pages_covering ~offset ~size);
  List.iter
    (fun page ->
      Hashtbl.remove entry.pages page.p_idx;
      unlink t page)
    !doomed;
  List.sort
    (fun a b -> Int.compare a.Vm_types.ext_offset b.Vm_types.ext_offset)
    !extents

let total_cached_pages t = t.resident

(* Evict the least-recently-used page, pushing dirty contents to the
   owning pager first. *)
let evict_one t =
  match t.lru.newer with
  | page when page == t.lru -> ()
  | page ->
      let entry = page.p_entry and idx = page.p_idx in
      (* Remove before the dirty push: the push may recurse into this VMM
         and must not pick the same victim again. *)
      Hashtbl.remove entry.pages idx;
      unlink t page;
      t.evicted <- t.evicted + 1;
      note_retired page;
      if page.dirty then
        match entry.pager with
        | Some pager when not (Sp_obj.Sdomain.alive pager.Vm_types.p_domain) ->
            (* the serving incarnation crashed before this page was pushed:
               the data is lost, like dirty data at a machine crash *)
            t.reconciled_lost <- t.reconciled_lost + 1
        | Some pager when not t.clustered ->
            (* The victim is already out of the table, so its buffer can be
               handed to the pager as-is — no defensive copy needed. *)
            Sp_obj.Door.call ~op:"vmm.evict" t.vmm_domain (fun () ->
                Vm_types.sync pager ~offset:(idx * ps) page.data)
        | Some pager ->
            (* Write-behind clustering: push the whole contiguous dirty run
               around the victim in one vectored crossing.  The neighbours
               stay cached, now clean. *)
            let dirty_at i =
              match Hashtbl.find_opt entry.pages i with
              | Some p -> p.dirty
              | None -> false
            in
            let lo = ref idx and hi = ref idx in
            while dirty_at (!lo - 1) do
              decr lo
            done;
            while dirty_at (!hi + 1) do
              incr hi
            done;
            if !lo = idx && !hi = idx then
              Sp_obj.Door.call ~op:"vmm.evict" t.vmm_domain (fun () ->
                  Vm_types.sync pager ~offset:(idx * ps) page.data)
            else begin
              let n = !hi - !lo + 1 in
              let buf = Bytes.create (n * ps) in
              for i = !lo to !hi do
                let src = if i = idx then page else Hashtbl.find entry.pages i in
                Bytes.blit src.data 0 buf ((i - !lo) * ps) ps
              done;
              Sp_obj.Door.call ~op:"vmm.evict" t.vmm_domain (fun () ->
                  Vm_types.sync_v pager
                    [ { Vm_types.ext_offset = !lo * ps; ext_data = buf } ]);
              for i = !lo to !hi do
                match Hashtbl.find_opt entry.pages i with
                | Some p -> p.dirty <- false
                | None -> ()
              done
            end
        | None -> ()

(* Insert a page, honouring the capacity bound.  While a victim's dirty
   data is being pushed out, nested insertions are admitted unconditionally
   (the recursion's working set is effectively pinned), so the cache may
   briefly overshoot rather than livelock.  A page already at [idx] (an
   upgrade fault, or a populate or zero-fill over it) is retired. *)
let insert_page t entry idx page =
  (match t.capacity with
  | Some cap when not t.evicting -> (
      t.evicting <- true;
      let guard = ref (2 * cap) in
      match
        while t.resident >= cap && !guard > 0 do
          evict_one t;
          decr guard
        done
      with
      | () -> t.evicting <- false
      | exception e ->
          t.evicting <- false;
          raise e)
  | _ -> ());
  (match Hashtbl.find entry.pages idx with
  | old ->
      note_retired old;
      unlink t old
  | exception Not_found -> ());
  Hashtbl.replace entry.pages idx page;
  if entry.registered then link_newest t page

let make_cache_object t entry =
  {
    Vm_types.c_domain = t.vmm_domain;
    c_label = Printf.sprintf "cache:%s:%s" t.vmm_name entry.e_key;
    c_flush_back =
      (fun ~offset ~size ->
        scan_range t entry ~offset ~size ~collect_dirty:true ~clear_dirty:true
          ~downgrade:false ~drop:true);
    c_deny_writes =
      (fun ~offset ~size ->
        scan_range t entry ~offset ~size ~collect_dirty:true ~clear_dirty:true
          ~downgrade:true ~drop:false);
    c_write_back =
      (fun ~offset ~size ->
        scan_range t entry ~offset ~size ~collect_dirty:true ~clear_dirty:true
          ~downgrade:false ~drop:false);
    c_delete_range =
      (fun ~offset ~size ->
        ignore
          (scan_range t entry ~offset ~size ~collect_dirty:false ~clear_dirty:false
             ~downgrade:false ~drop:true));
    c_zero_fill =
      (fun ~offset ~size ->
        let zero_page idx =
          let page_off = idx * ps in
          if offset <= page_off && page_off + ps <= offset + size then
            insert_page t entry idx
              (new_page entry idx (Bytes.make ps '\000') Vm_types.Read_only
                 ~prefetched:false)
          else
            match Hashtbl.find_opt entry.pages idx with
            | None -> ()
            | Some page ->
                let from = max offset page_off in
                let upto = min (offset + size) (page_off + ps) in
                own page;
                Bytes.fill page.data (from - page_off) (upto - from) '\000'
        in
        List.iter zero_page (Vm_types.pages_covering ~offset ~size));
    c_populate =
      (fun ~offset ~access data ->
        if offset mod ps <> 0 then invalid_arg "populate: unaligned offset";
        let total = Bytes.length data in
        let insert idx =
          let rel = (idx * ps) - offset in
          let chunk = Bytes.make ps '\000' in
          let n = min ps (total - rel) in
          Bytes.blit data rel chunk 0 n;
          insert_page t entry idx (new_page entry idx chunk access ~prefetched:false)
        in
        List.iter insert (Vm_types.pages_covering ~offset ~size:total));
    c_destroy =
      (fun () ->
        forget_pages t entry;
        entry.pager <- None);
    c_exten = [];
  }

(* A connect from a pager in a different domain than the one already
   bound means the previous serving incarnation crashed and a restarted
   layer is reconnecting.  Reconcile cached pages per MRSW state: clean
   pages (including dirty-then-synced ones) are dropped and refetched on
   the next fault; dirty unsynced pages never reached the old pager and
   are lost — the same contract as unsynced data at a machine crash. *)
let reconcile t entry =
  let clean = ref 0 and lost = ref 0 in
  Hashtbl.iter (fun _ (p : page) -> if p.dirty then incr lost else incr clean) entry.pages;
  forget_pages t entry;
  entry.last_fault <- min_int;
  entry.ra_window <- 0;
  entry.ra_next <- min_int;
  t.reconciled_clean <- t.reconciled_clean + !clean;
  t.reconciled_lost <- t.reconciled_lost + !lost;
  if Sp_trace.enabled () then
    Sp_trace.instant ~name:"vmm.reconcile"
      ~args:
        [
          ("key", entry.e_key);
          ("clean", string_of_int !clean);
          ("lost", string_of_int !lost);
        ]
      ()

let manager t =
  {
    Vm_types.cm_id = "vmm:" ^ t.vmm_name;
    cm_domain = t.vmm_domain;
    cm_connect =
      (fun ~key pager ->
        let entry = entry_for t key in
        (match entry.pager with
        | Some old
          when Sp_obj.Sdomain.id old.Vm_types.p_domain
               <> Sp_obj.Sdomain.id pager.Vm_types.p_domain ->
            reconcile t entry
        | _ -> ());
        entry.pager <- Some pager;
        make_cache_object t entry);
  }

let map t mem =
  Sp_obj.Door.kernel_call ();
  let rights = Vm_types.bind mem (manager t) Vm_types.Read_write in
  let entry = entry_for t rights.Vm_types.cr_key in
  entry.mapped <- entry.mapped + 1;
  { m_vmm = t; m_entry = entry; m_mem = mem; m_live = true }

let pager_of entry =
  match entry.pager with
  | Some p -> p
  | None -> failwith ("Vmm: no pager bound for cache entry " ^ entry.e_key)

(* A mapping whose channel was torn down (drop_caches destroyed the
   cache object, which cleared [entry.pager]) reconnects on the next
   fault: the mapping still holds the memory object, and re-binding it
   re-establishes the channel under the same key. *)
let pager_of_mapping m =
  let entry = m.m_entry in
  (match entry.pager with
  | Some _ -> ()
  | None -> ignore (Vm_types.bind m.m_mem (manager m.m_vmm) Vm_types.Read_write));
  pager_of entry

let fault m idx access =
  let model = Sp_sim.Cost_model.current () in
  Sp_sim.Metrics.incr_page_faults ();
  Sp_sim.Simclock.advance model.page_fault_ns;
  let entry = m.m_entry in
  let pager = pager_of_mapping m in
  (* Read-ahead: a read fault continuing a sequential run asks the pager
     for more than strictly needed; anything extra comes back read-only.
     A manual window ([set_readahead]) is used as-is; otherwise the
     per-entry adaptive window starts at two pages, doubles each time the
     run continues (up to the cost model's cap) and collapses to zero on a
     non-sequential fault.  [ra_next] — the first page past the last fetch
     — recognises a run even when prefetched pages absorbed the
     intermediate faults. *)
  let vmm = m.m_vmm in
  let extra =
    if access <> Vm_types.Read_only then 0
    else if vmm.readahead_pages > 0 then
      if idx = entry.last_fault + 1 then vmm.readahead_pages else 0
    else if vmm.adaptive && model.readahead_max_pages > 0 then begin
      let sequential = idx = entry.ra_next || idx = entry.last_fault + 1 in
      let window =
        if sequential then
          min model.readahead_max_pages (max 2 (entry.ra_window * 2))
        else 0
      in
      if window <> entry.ra_window && Sp_trace.enabled () then
        Sp_trace.instant ~name:"vmm.readahead"
          ~args:
            [
              ("key", entry.e_key);
              ("page", string_of_int idx);
              ("window", string_of_int window);
            ]
          ();
      entry.ra_window <- window;
      window
    end
    else 0
  in
  entry.last_fault <- idx;
  entry.ra_next <- idx + 1 + extra;
  let size = (1 + extra) * ps in
  let data =
    Sp_obj.Door.call ~op:"vmm.fault" m.m_vmm.vmm_domain (fun () ->
        Vm_types.page_in pager ~offset:(idx * ps) ~size ~access)
  in
  (* A one-page result is the page: the pager gave the buffer up.  A
     read-ahead batch is sliced, a short result padded. *)
  let slice i =
    let from = i * ps in
    let available = Bytes.length data - from in
    if from = 0 && available = ps then Some data
    else if available >= ps then Some (Bytes.sub data from ps)
    else if available > 0 then begin
      let padded = Bytes.make ps '\000' in
      Bytes.blit data from padded 0 available;
      Some padded
    end
    else None
  in
  let first =
    match slice 0 with Some d -> d | None -> Bytes.make ps '\000'
  in
  let page = new_page entry idx first access ~prefetched:false in
  insert_page m.m_vmm entry idx page;
  for i = 1 to extra do
    match slice i with
    | Some d ->
        if not (Hashtbl.mem entry.pages (idx + i)) then
          insert_page m.m_vmm entry (idx + i)
            (new_page entry (idx + i) d Vm_types.Read_only ~prefetched:true)
    | None -> ()
  done;
  page

let note_hit (page : page) =
  if page.prefetched then begin
    page.prefetched <- false;
    Sp_sim.Metrics.incr_readahead_hits ()
  end

let ensure m idx access =
  match Hashtbl.find_opt m.m_entry.pages idx with
  | Some page when access = Vm_types.Read_only ->
      touch m.m_vmm page;
      note_hit page;
      page
  | Some page when page.mode = Vm_types.Read_write ->
      touch m.m_vmm page;
      note_hit page;
      page
  | Some _ -> fault m idx Vm_types.Read_write
  | None -> fault m idx access

let check_live m = if not m.m_live then failwith "Vmm: access through unmapped mapping"

let read m ~pos ~len =
  check_live m;
  if len < 0 || pos < 0 then invalid_arg "Vmm.read";
  let out = Bytes.create len in
  let rec go cursor =
    if cursor < len then begin
      let off = pos + cursor in
      let idx = Vm_types.page_index off in
      let page = ensure m idx Vm_types.Read_only in
      let in_page = off - (idx * ps) in
      let n = min (len - cursor) (ps - in_page) in
      Bytes.blit page.data in_page out cursor n;
      go (cursor + n)
    end
  in
  go 0;
  Sp_obj.Door.charge_source_copy len;
  out

let write m ~pos data =
  check_live m;
  if pos < 0 then invalid_arg "Vmm.write";
  let len = Bytes.length data in
  let rec go cursor =
    if cursor < len then begin
      let off = pos + cursor in
      let idx = Vm_types.page_index off in
      let page = ensure m idx Vm_types.Read_write in
      let in_page = off - (idx * ps) in
      let n = min (len - cursor) (ps - in_page) in
      own page;
      Bytes.blit data cursor page.data in_page n;
      page.dirty <- true;
      go (cursor + n)
    end
  in
  go 0;
  Sp_obj.Door.charge_source_copy len

let push_dirty vmm entry =
  match entry.pager with
  | None -> ()
  | Some pager when not (Sp_obj.Sdomain.alive pager.Vm_types.p_domain) ->
      (* pager incarnation crashed while we held its pages: reconcile
         instead of calling into the dead domain *)
      reconcile vmm entry
  | Some pager ->
      let flush idx (page : page) acc = if page.dirty then (idx, page) :: acc else acc in
      let dirty = Hashtbl.fold flush entry.pages [] in
      let ordered = List.sort (fun (a, _) (b, _) -> Int.compare a b) dirty in
      if ordered = [] then ()
      else if not vmm.clustered then
        (* Unclustered baseline: one crossing per dirty page. *)
        List.iter
          (fun (idx, page) ->
            let buf = lend page in
            Sp_obj.Door.call ~op:"vmm.push_dirty" vmm.vmm_domain (fun () ->
                Vm_types.sync pager ~offset:(idx * ps) buf);
            give_back page buf;
            page.dirty <- false)
          ordered
      else begin
        (* Clustered writeback: coalesce contiguous dirty pages into one
           extent per run and push the whole batch in a single vectored
           crossing.  A one-page run lends its page's buffer; a longer run
           is gathered into one buffer of its own. *)
        let runs =
          List.fold_left
            (fun acc (idx, page) ->
              match acc with
              | ((prev, _) :: _ as run) :: rest when idx = prev + 1 ->
                  ((idx, page) :: run) :: rest
              | _ -> [ (idx, page) ] :: acc)
            [] ordered
          |> List.rev_map List.rev
        in
        let extents =
          List.map
            (fun run ->
              match run with
              | [ (idx, page) ] -> { Vm_types.ext_offset = idx * ps; ext_data = lend page }
              | [] -> assert false
              | (first, _) :: _ ->
                  let buf = Bytes.create (List.length run * ps) in
                  List.iteri
                    (fun i (_, page) -> Bytes.blit page.data 0 buf (i * ps) ps)
                    run;
                  { Vm_types.ext_offset = first * ps; ext_data = buf })
            runs
        in
        Sp_obj.Door.call ~op:"vmm.push_dirty" vmm.vmm_domain (fun () ->
            Vm_types.sync_v pager extents);
        List.iter2
          (fun run x ->
            match run with [ (_, page) ] -> give_back page x.Vm_types.ext_data | _ -> ())
          runs extents;
        List.iter (fun (_, page) -> page.dirty <- false) ordered
      end

let msync m =
  check_live m;
  Sp_obj.Door.kernel_call ();
  push_dirty m.m_vmm m.m_entry

let unmap m =
  if m.m_live then begin
    m.m_live <- false;
    Sp_obj.Door.kernel_call ();
    push_dirty m.m_vmm m.m_entry;
    m.m_entry.mapped <- max 0 (m.m_entry.mapped - 1)
  end

let cached_pages m = Hashtbl.length m.m_entry.pages

let resident_pages m =
  List.sort Int.compare (Hashtbl.fold (fun idx _ acc -> idx :: acc) m.m_entry.pages [])

let drop_caches t =
  let drop _key entry =
    push_dirty t entry;
    forget_pages t entry
  in
  Hashtbl.iter drop t.entries;
  (* Evict the entry records of unmapped files too: a live mapping holds
     its entry through the mapped count, but entries for files nobody
     maps any more only pin memory (a bulk build touches millions).  A
     page a re-entrant push brought back into a forgotten entry leaves
     the ring and the budget with it. *)
  let idle =
    Hashtbl.fold
      (fun _ e acc -> if e.mapped = 0 then e :: acc else acc)
      t.entries []
  in
  List.iter
    (fun e ->
      e.registered <- false;
      Hashtbl.iter (fun _ p -> unlink t p) e.pages;
      Hashtbl.remove t.entries e.e_key)
    idle

let entry_count t = Hashtbl.length t.entries

let set_readahead t ~pages =
  if pages < 0 then invalid_arg "Vmm.set_readahead";
  t.readahead_pages <- pages

let set_adaptive t on = t.adaptive <- on
let set_clustered t on = t.clustered <- on

let set_capacity t ~pages =
  match pages with
  | Some n when n <= 0 -> invalid_arg "Vmm.set_capacity"
  | _ -> t.capacity <- pages

let evictions t = t.evicted
let reconciled t = (t.reconciled_clean, t.reconciled_lost)
