module V = Sp_vm.Vm_types

let ps = V.page_size

(* Per-block holder state: which channels hold block [idx], in which
   mode.  The protocol keeps at most one read-write holder per block, and
   a read-write holder is the only holder. *)
type holder = { h_channel : int; mutable h_mode : V.access }

type t = { bs : (int, holder list ref) Hashtbl.t; t_lock : Sp_sched.Rwlock.t }

let create () = { bs = Hashtbl.create 32; t_lock = Sp_sched.Rwlock.create "mrsw" }

let holders t idx = match Hashtbl.find_opt t.bs idx with Some l -> !l | None -> []

let record t idx ~ch ~mode =
  let l =
    match Hashtbl.find_opt t.bs idx with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.bs idx l;
        l
  in
  match List.find_opt (fun h -> h.h_channel = ch) !l with
  | Some h ->
      (* Never silently downgrade: page-in RO while holding RW keeps RW. *)
      if mode = V.Read_write then h.h_mode <- mode
  | None -> l := { h_channel = ch; h_mode = mode } :: !l

let remove t idx ~ch =
  match Hashtbl.find_opt t.bs idx with
  | None -> ()
  | Some l ->
      l := List.filter (fun h -> h.h_channel <> ch) !l;
      if !l = [] then Hashtbl.remove t.bs idx

let downgrade t idx ~ch =
  List.iter (fun h -> if h.h_channel = ch then h.h_mode <- V.Read_only) (holders t idx)

let populated_blocks t =
  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.bs [])

(* Serialize a whole grant section (revoke + produce + record) against
   concurrent scheduler tasks: read-only grants may overlap (the revoke
   and record steps are idempotent for RO holders), a read-write grant is
   exclusive.  Outside a scheduler run this is just [f ()]. *)
let granting t ~access f =
  match access with
  | V.Read_only -> Sp_sched.Rwlock.with_read t.t_lock f
  | V.Read_write -> Sp_sched.Rwlock.with_write t.t_lock f

(* The one holder walk: apply a cache action to every holder of each of
   [blocks] other than channel [except], handing the dirty extents it
   returns to [sink] as they arrive.  [`Flush] and [`Delete] forget the
   holder, [`Deny] touches only read-write holders and downgrades them.
   Holders served by a fail-stopped domain read as absent
   ([Pager_lib.live_cache]) and are forgotten without a call into the
   dead layer.  Plain recursion, so a grant's walk allocates no
   closures. *)
let act_on t ~channels action sink b h =
  let offset = b * ps in
  match Sp_vm.Pager_lib.live_cache channels ~id:h.h_channel with
  | None -> remove t b ~ch:h.h_channel
  | Some cache -> (
      match action with
      | `Flush ->
          List.iter sink (V.flush_back cache ~offset ~size:ps);
          remove t b ~ch:h.h_channel
      | `Deny ->
          if h.h_mode = V.Read_write then begin
            List.iter sink (V.deny_writes cache ~offset ~size:ps);
            downgrade t b ~ch:h.h_channel
          end
      | `Write_back -> List.iter sink (V.write_back cache ~offset ~size:ps)
      | `Delete ->
          V.delete_range cache ~offset ~size:ps;
          remove t b ~ch:h.h_channel
      | `Zero -> V.zero_fill cache ~offset ~size:ps)

let rec apply t ~channels ~except blocks action sink =
  match blocks with
  | [] -> ()
  | b :: rest ->
      act t ~channels ~except b action sink (holders t b);
      apply t ~channels ~except rest action sink

and act t ~channels ~except b action sink = function
  | [] -> ()
  | h :: rest ->
      if h.h_channel <> except then act_on t ~channels action sink b h;
      act t ~channels ~except b action sink rest

type retain = [ `Drop | `Read_only | `Same ]
type around = { around : 'a. (unit -> 'a) -> 'a }

let pager t ~channels ~id ~domain ~label ?around ?sync_v ~produce ~store fs_pager =
  let section ~access f =
    match around with
    | None -> granting t ~access f
    | Some a -> a.around (fun () -> granting t ~access f)
  in
  (* Revoked extents land below as a [write_out] would: the revoked
     cache keeps nothing writable. *)
  let write_down x = store ~retain:`Read_only ~offset:x.V.ext_offset x.V.ext_data in
  let page_in ~offset ~size ~access =
    section ~access @@ fun () ->
    let blocks = V.pages_covering ~offset ~size in
    let revoke = match access with V.Read_write -> `Flush | V.Read_only -> `Deny in
    apply t ~channels ~except:id blocks revoke write_down;
    let data = produce ~offset ~size ~access in
    List.iter (fun b -> record t b ~ch:id ~mode:access) blocks;
    data
  in
  let push retain ~offset data =
    section ~access:V.Read_write @@ fun () ->
    store ~retain ~offset data;
    let size = Bytes.length data in
    match retain with
    | `Same -> ()
    | `Drop -> List.iter (fun b -> remove t b ~ch:id) (V.pages_covering ~offset ~size)
    | `Read_only ->
        (* The caller retains the data read-only (Appendix B), so it
           becomes or stays an RO holder eligible for revocation. *)
        List.iter
          (fun b ->
            record t b ~ch:id ~mode:V.Read_only;
            downgrade t b ~ch:id)
          (V.pages_covering ~offset ~size)
  in
  {
    V.p_domain = domain;
    p_label = label;
    p_page_in = page_in;
    p_page_out = push `Drop;
    p_write_out = push `Read_only;
    p_sync = push `Same;
    p_sync_v = (match sync_v with Some f -> f | None -> V.sync_each (push `Same));
    p_done_with =
      (fun () ->
        Hashtbl.filter_map_inplace
          (fun _ l ->
            l := List.filter (fun h -> h.h_channel <> id) !l;
            if !l = [] then None else Some l)
          t.bs;
        Sp_vm.Pager_lib.remove channels id);
    p_exten = [ V.Fs_pager fs_pager ];
  }

let export_file ?around ?sync_v ~vmm ~domain ~channels ~key ~produce ~store ~fs_pager
    ~stat ~length ~set_attr ~grow ~truncate ~sync t =
  let mem =
    {
      V.m_domain = domain;
      m_label = key;
      m_bind =
        (fun mgr _access ->
          Sp_vm.Pager_lib.bind channels ~key
            ~make_pager:(fun ~id ->
              pager t ~channels ~id ~domain ~label:key ?around ?sync_v ~produce ~store
                (fs_pager ~id))
            mgr);
      m_get_length = length;
      m_set_length = truncate;
    }
  in
  let mapped = Sp_core.File.mapped_ops ~vmm ~mem ~get_attr:stat ~set_attr_len:grow in
  {
    Sp_core.File.f_id = key;
    f_domain = domain;
    f_mem = mem;
    f_read = mapped.Sp_core.File.mo_read;
    f_write = mapped.Sp_core.File.mo_write;
    f_stat = stat;
    f_set_attr = set_attr;
    f_truncate = truncate;
    f_sync =
      (fun () ->
        mapped.Sp_core.File.mo_sync ();
        sync ());
    f_exten = [];
  }

let sweep t ~channels action ~write_down =
  granting t ~access:V.Read_write @@ fun () ->
  apply t ~channels ~except:(-1) (populated_blocks t) action write_down

let forward t ~channels action ~offset ~size =
  let got = ref [] in
  apply t ~channels ~except:(-1) (V.pages_covering ~offset ~size) action (fun x ->
      got := x :: !got);
  List.rev !got

let drop_blocks_from t ~block =
  Hashtbl.filter_map_inplace (fun b l -> if b >= block then None else Some l) t.bs

let shrink t ~channels ~key ~old ~len ~write_down =
  if len < old then begin
    let cut = (len + ps - 1) / ps * ps in
    List.iter
      (fun ch ->
        let cache = ch.Sp_vm.Pager_lib.ch_cache in
        List.iter write_down (V.write_back cache ~offset:0 ~size:cut);
        if len mod ps <> 0 then V.zero_fill cache ~offset:len ~size:(cut - len);
        V.delete_range cache ~offset:cut ~size:(max ps (old - cut)))
      (Sp_vm.Pager_lib.live_channels_for_key channels ~key);
    drop_blocks_from t ~block:(cut / ps)
  end

let clear t = Hashtbl.clear t.bs

let invariant_holds t =
  Hashtbl.fold
    (fun _ l ok ->
      ok
      &&
      let writers = List.length (List.filter (fun h -> h.h_mode = V.Read_write) !l) in
      writers = 0 || (writers = 1 && List.length !l = 1))
    t.bs true
