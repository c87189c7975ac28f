(* Sp_cluster — a sharded DFS with lease-coherent client caching.
   Grows the single-server DFS into a multi-node service:

   - The exported namespace is sharded across N server nodes by hashing
     the first path component ([Sp_dir.Hash]), so a directory co-locates
     with its subtree.  Clients cache a small shard map (version +
     placement overrides) and re-fetch it when a server answers
     {!Wrong_shard} — the only time placement is ever re-read.
   - Client caching is lease-backed: a cached binding (positive or
     negative) is served warm only while the client holds an unexpired
     per-shard lease.  Leases ride existing RPCs (every successful call
     grants/renews; no extra messages), server-side namespace mutations
     push invalidations to lease holders, and a warm lease-held open
     charges zero network messages — it is a pure table lookup.
   - Robustness: lease expiry is the partition-safety valve (checked
     against [Sp_sim.Simclock], never wall time — a partitioned client's
     cache self-fences when renewals stop); each shard is a supervised
     stack (journaled disk twins under a Mirrorfs, a DFS front) restarted
     by [Sp_supervise] on node kill, with clients re-resolving by
     incarnation; retried RPCs ride [Net.rpc_retry]'s idempotency tokens
     so a lost ack cannot double-apply; and invalidation pushes go
     through the [Sp_avail.Breaker] so a partitioned client sheds
     instead of melting the mutating server (storm control). *)

module Sname = Sp_naming.Sname
module File = Sp_core.File
module Stackable = Sp_core.Stackable
module Fserr = Sp_core.Fserr
module Net = Sp_dfs.Net
module Simclock = Sp_sim.Simclock
module DL = Sp_sfs.Disk_layer

(* The contacted server does not own the path's top component under the
   authoritative map: the client's cached shard map is stale — re-fetch
   and retry. *)
exception Wrong_shard of string

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type shard = {
  sh_id : int;
  sh_node : string;
  sh_disk_a : Sp_blockdev.Disk.t;
  sh_disk_b : Sp_blockdev.Disk.t;
  sh_vmm : Sp_vm.Vmm.t;
  sh_sup : Sp_supervise.t;
  sh_lv_store : string;  (* supervised level: twin mounts + mirror *)
  sh_lv_dfs : string;  (* supervised level: the DFS serving front *)
  (* Lease table: client node -> expiry (sim ns).  Granted server-side
     inside the RPC body, so a reply-loss grant errs in the safe
     direction: the server pushes invalidations to a client that will
     not serve warm. *)
  sh_leases : (string, int) Hashtbl.t;
  (* Which clients cached which served binding: path key -> (last
     component, holder set).  The push targets; a pushed holder is
     dropped (it must re-open, and re-opening re-registers). *)
  sh_served : (string, string * (string, unit) Hashtbl.t) Hashtbl.t;
  mutable sh_sub : int;  (* Name_coherence subscription handle *)
}

type centry = {
  ce_file : File.t option;  (* None = cached negative (unbound) *)
  ce_shard : int;
  ce_epoch : int;  (* Name_coherence fence epoch at insert *)
  ce_version : int;  (* shard-map version at insert *)
  ce_incarnation : int;  (* serving dfs domain id at insert *)
}

type client = {
  c_node : string;
  c_domain : Sp_obj.Sdomain.t;
  c_cluster : t;
  c_cache : (string, centry) Hashtbl.t;
  mutable c_version : int;  (* cached shard-map version *)
  c_overrides : (string, int) Hashtbl.t;  (* cached placement overrides *)
  c_lease_until : int array;  (* per-shard lease expiry, sim ns *)
  mutable c_warm_hits : int;
  mutable c_negative_hits : int;
  mutable c_cold_opens : int;
  mutable c_invalidations : int;  (* pushes received *)
  mutable c_wrong_shard : int;  (* map re-fetches forced by Wrong_shard *)
  mutable c_stale_blocked : int;  (* entries refused: lease lapsed *)
  mutable c_stale_serves : int;  (* must stay 0: warm serve past lease *)
}

and t = {
  cl_name : string;
  cl_net : Net.t;
  cl_lease_ns : int;  (* 0 = leaseless (no client caching) *)
  cl_shards : shard array;
  mutable cl_version : int;
  cl_overrides : (string, int) Hashtbl.t;  (* component -> shard id *)
  cl_clients : (string, client) Hashtbl.t;
  mutable cl_inval_sent : int;
  mutable cl_inval_shed : int;  (* shed by breaker or lost to the net *)
  mutable cl_inval_lapsed : int;  (* skipped: holder's lease already over *)
}

type client_stats = {
  cs_warm_hits : int;
  cs_negative_hits : int;
  cs_cold_opens : int;
  cs_invalidations : int;
  cs_wrong_shard : int;
  cs_stale_blocked : int;
  cs_stale_serves : int;
}

type stats = {
  s_inval_sent : int;
  s_inval_shed : int;
  s_inval_lapsed : int;
}

(* The node currently executing a mutation, for push-exclusion (its own
   cache is updated synchronously; pushing to it would only waste a
   message).  Task-local under [Sp_sched], like [Door]'s current
   domain. *)
let current_mutator : string option ref = ref None

let () = Sp_sched.register_tls current_mutator

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

let owner_of t comp =
  match Hashtbl.find_opt t.cl_overrides comp with
  | Some s -> s
  | None -> Sp_dir.Hash.bucket comp ~buckets:(Array.length t.cl_shards)

let client_owner c comp =
  match Hashtbl.find_opt c.c_overrides comp with
  | Some s -> s
  | None ->
      Sp_dir.Hash.bucket comp ~buckets:(Array.length c.c_cluster.cl_shards)

let top_component path =
  match Sname.components path with
  | c :: _ -> c
  | [] -> invalid_arg "Sp_cluster: the root has no owning shard"

let check_owner t sh path =
  let c = top_component path in
  if owner_of t c <> sh.sh_id then raise (Wrong_shard c)

(* ------------------------------------------------------------------ *)
(* Shard stacks                                                        *)
(* ------------------------------------------------------------------ *)

let top sh = Sp_supervise.current sh.sh_sup sh.sh_lv_dfs
let dfs_domain sh = (top sh).Stackable.sfs_domain

(* Route every file operation through the shard's serving (DFS) domain
   door before it reaches the store: node death must make held handles
   fail ([Dead_domain]) even though the storage domains survive a
   front-level kill.  The door charges the crossing, so the server-side
   hop stays visible in profiles. *)
let gate dfs_dom (f : File.t) =
  {
    f with
    File.f_domain = dfs_dom;
    f_read = (fun ~pos ~len -> File.read f ~pos ~len);
    f_write = (fun ~pos data -> File.write f ~pos data);
    f_stat = (fun () -> File.stat f);
    f_set_attr = (fun a -> File.set_attr f a);
    f_truncate = (fun n -> File.truncate f n);
    f_sync = (fun () -> File.sync f);
  }

let make_shard t_name ~net ~blocks ~inodes i =
  let node = Printf.sprintf "%s.n%d" t_name i in
  let label pfx = Printf.sprintf "%s.%d.%s" t_name i pfx in
  let disk_a = Sp_blockdev.Disk.create ~label:(label "a") ~blocks ()
  and disk_b = Sp_blockdev.Disk.create ~label:(label "b") ~blocks () in
  DL.mkfs ~journal:true ~inodes disk_a;
  DL.mkfs ~journal:true ~inodes disk_b;
  let vmm = Sp_vm.Vmm.create ~node (label "vmm") in
  let lv_store = label "store" and lv_dfs = label "dfs" in
  let levels =
    [
      (* One level builds the whole storage substrate: the twin journaled
         mounts and the mirror across them restart as a unit (mounting is
         crash recovery — the journals replay).  All three share ONE
         domain per incarnation: the supervisor's restart fence kills
         only the level's top domain, so if the twins had their own
         domains a fiber suspended inside an old mount would outlive the
         kill and keep writing to the raw disks behind the remounted,
         journal-replayed incarnation. *)
      Sp_supervise.level ~name:lv_store (fun ~lower:_ ->
          let dom = Sp_obj.Sdomain.create ~node lv_store in
          let a = DL.mount ~node ~domain:dom ~name:(label "a") disk_a in
          let b = DL.mount ~node ~domain:dom ~name:(label "b") disk_b in
          let mir = Sp_mirrorfs.Mirrorfs.make ~node ~domain:dom ~vmm ~name:lv_store () in
          Stackable.stack_on mir a;
          Stackable.stack_on mir b;
          mir);
      Sp_supervise.level ~name:lv_dfs (fun ~lower ->
          let fs = Sp_dfs.Dfs.make_server ~node ~net ~vmm ~name:lv_dfs () in
          Stackable.stack_on fs (Option.get lower);
          fs);
    ]
  in
  let sup = Sp_supervise.supervise ~name:(Printf.sprintf "%s.%d" t_name i) levels in
  {
    sh_id = i;
    sh_node = node;
    sh_disk_a = disk_a;
    sh_disk_b = disk_b;
    sh_vmm = vmm;
    sh_sup = sup;
    sh_lv_store = lv_store;
    sh_lv_dfs = lv_dfs;
    sh_leases = Hashtbl.create 8;
    sh_served = Hashtbl.create 32;
    sh_sub = -1;
  }

(* ------------------------------------------------------------------ *)
(* Server-side lease bookkeeping and invalidation push                 *)
(* ------------------------------------------------------------------ *)

let grant t sh cnode =
  if t.cl_lease_ns > 0 then
    Hashtbl.replace sh.sh_leases cnode (Simclock.now () + t.cl_lease_ns)

let record_served t sh key comp cnode =
  if t.cl_lease_ns > 0 then begin
    let holders =
      match Hashtbl.find_opt sh.sh_served key with
      | Some (_, h) -> h
      | None ->
          let h = Hashtbl.create 4 in
          Hashtbl.replace sh.sh_served key (comp, h);
          h
    in
    Hashtbl.replace holders cnode ()
  end

let inval_breaker sh cnode = "cl.inval:" ^ sh.sh_node ^ ">" ^ cnode

(* Push one invalidation, best-effort: a single attempt behind the
   per-destination circuit breaker.  A partitioned or dead client costs
   the server one timeout window, trips its breaker, and every further
   push to it sheds until the cooldown's half-open probe — lease expiry
   covers whatever the client missed.  This is what keeps an
   invalidation storm (one hot directory, many holders) from melting
   the mutating server. *)
let push_one t sh key cnode =
  match Hashtbl.find_opt t.cl_clients cnode with
  | None -> ()
  | Some cl -> (
      let bk = inval_breaker sh cnode in
      match Sp_avail.Breaker.blocking bk with
      | Some _ ->
          Sp_sim.Metrics.incr_avail_shed ();
          t.cl_inval_shed <- t.cl_inval_shed + 1
      | None -> (
          let am_probe = Sp_avail.Breaker.probing bk in
          match
            Net.rpc t.cl_net ~src:sh.sh_node ~dst:cnode ~bytes:32 (fun () ->
                Hashtbl.remove cl.c_cache key;
                cl.c_invalidations <- cl.c_invalidations + 1)
          with
          | () ->
              Sp_avail.Breaker.note_ok bk;
              t.cl_inval_sent <- t.cl_inval_sent + 1
          | exception Net.Timeout _ ->
              if am_probe then Sp_avail.Breaker.abort_probe bk;
              Sp_avail.Breaker.trip ~reason:"invalidation timeout" bk;
              t.cl_inval_shed <- t.cl_inval_shed + 1))

(* A binding whose last component is [comp] changed somewhere in the
   process.  If this shard served bindings with that component to lease
   holders, push them an invalidation (except the mutating client — its
   cache is updated synchronously) and forget the registration: a
   dropped holder re-registers when it re-opens. *)
let on_change t sh comp =
  if Hashtbl.length sh.sh_served > 0 then begin
    let targets = ref [] in
    Hashtbl.iter
      (fun key (kcomp, holders) ->
        if String.equal kcomp comp then
          Hashtbl.iter
            (fun cnode () -> targets := (key, cnode) :: !targets)
            holders)
      sh.sh_served;
    let targets = List.sort compare !targets in
    let now = Simclock.now () in
    List.iter
      (fun (key, cnode) ->
        (match Hashtbl.find_opt sh.sh_served key with
        | Some (_, holders) ->
            Hashtbl.remove holders cnode;
            if Hashtbl.length holders = 0 then Hashtbl.remove sh.sh_served key
        | None -> ());
        if !current_mutator <> Some cnode then
          match Hashtbl.find_opt sh.sh_leases cnode with
          | Some exp when now < exp -> push_one t sh key cnode
          | Some _ ->
              (* Lease already over: the holder's cache self-fences on
                 its own clock, so a push would be a wasted message —
                 but count the skip, or a partition that outlives the
                 lease looks indistinguishable from a working push
                 path. *)
              Hashtbl.remove sh.sh_leases cnode;
              t.cl_inval_lapsed <- t.cl_inval_lapsed + 1
          | None -> ())
      targets
  end

(* ------------------------------------------------------------------ *)
(* Cluster construction                                                *)
(* ------------------------------------------------------------------ *)

let default_lease_ns = 25_000_000

let make ?(name = "cluster") ?(lease_ns = default_lease_ns) ?(blocks = 4096)
    ?(inodes = 256) ~net ~nodes () =
  if nodes < 1 then invalid_arg "Sp_cluster.make: nodes < 1";
  let t =
    {
      cl_name = name;
      cl_net = net;
      cl_lease_ns = lease_ns;
      cl_shards = [||];
      cl_version = 1;
      cl_overrides = Hashtbl.create 8;
      cl_clients = Hashtbl.create 8;
      cl_inval_sent = 0;
      cl_inval_shed = 0;
      cl_inval_lapsed = 0;
    }
  in
  let shards = Array.init nodes (make_shard name ~net ~blocks ~inodes) in
  let t = { t with cl_shards = shards } in
  Array.iter
    (fun sh -> sh.sh_sub <- Sp_naming.Name_coherence.subscribe_handle (on_change t sh))
    shards;
  t

let shutdown t =
  Array.iter
    (fun sh ->
      Sp_naming.Name_coherence.unsubscribe sh.sh_sub;
      Sp_supervise.unsupervise sh.sh_sup;
      Hashtbl.iter
        (fun cnode _ -> Sp_avail.Breaker.reset (inval_breaker sh cnode))
        t.cl_clients)
    t.cl_shards;
  Hashtbl.reset t.cl_clients

let nodes t = Array.length t.cl_shards
let shard_node t i = t.cl_shards.(i).sh_node
let shard_disks t i = (t.cl_shards.(i).sh_disk_a, t.cl_shards.(i).sh_disk_b)
let owner t path = owner_of t (top_component path)
let stats t =
  {
    s_inval_sent = t.cl_inval_sent;
    s_inval_shed = t.cl_inval_shed;
    s_inval_lapsed = t.cl_inval_lapsed;
  }

let restarts t =
  Array.fold_left (fun acc sh -> acc + Sp_supervise.restarts sh.sh_sup) 0 t.cl_shards

(* Fail-stop the shard's serving front (the next door call into it
   raises [Dead_domain]; a supervised retry rebuilds it).  With
   [~store:true] the storage level dies instead — the supervisor then
   rebuilds the whole stack from the twin remounts up, and the remounts
   replay the journals (full crash recovery, not just a front swap). *)
let kill_shard ?(store = false) t i =
  let sh = t.cl_shards.(i) in
  Sp_supervise.kill sh.sh_sup (if store then sh.sh_lv_store else sh.sh_lv_dfs)

(* The server-side view of a shard's stack, for sweeps' direct
   verification reads (no network, no client cache). *)
let shard_top t i = top t.cl_shards.(i)

(* ------------------------------------------------------------------ *)
(* Rebalance                                                           *)
(* ------------------------------------------------------------------ *)

(* Move the namespace under top component [comp] to shard [to_]: copy
   the file (or the directory's files) across, flip the placement
   override, bump the map version.  Clients keep using their cached map
   until the old owner answers {!Wrong_shard}.  The emptied source
   directory is left as a husk — placement routes every future access
   to the new owner.  Migration bytes cross the wire once per file. *)
let rebalance t comp ~to_ =
  let n = Array.length t.cl_shards in
  if to_ < 0 || to_ >= n then invalid_arg "Sp_cluster.rebalance: bad shard";
  let src = owner_of t comp in
  if src <> to_ then begin
    let s_sh = t.cl_shards.(src) and d_sh = t.cl_shards.(to_) in
    let s_top = top s_sh and d_top = top d_sh in
    let path = Sname.of_components [ comp ] in
    let migrate_file sub =
      match Sp_naming.Context.resolve s_top.Stackable.sfs_ctx sub with
      | File.File f ->
          let data = File.read_all f in
          Net.rpc t.cl_net ~src:s_sh.sh_node ~dst:d_sh.sh_node
            ~bytes:(Bytes.length data) (fun () -> ());
          let nf = Stackable.create d_top sub in
          ignore (File.write nf ~pos:0 data);
          Stackable.remove s_top sub
      | _ -> ()
      | exception Sp_naming.Context.Unbound _ -> ()
    in
    (match Sp_naming.Context.resolve s_top.Stackable.sfs_ctx path with
    | File.File _ -> migrate_file path
    | Sp_naming.Context.Context _ ->
        Stackable.mkdir d_top path;
        let names = Stackable.listdir s_top path in
        List.iter (fun nm -> migrate_file (Sname.append path nm)) names
    | _ -> ()
    | exception Sp_naming.Context.Unbound _ -> ());
    Stackable.sync d_top;
    Stackable.sync s_top;
    Hashtbl.replace t.cl_overrides comp to_;
    t.cl_version <- t.cl_version + 1;
    (* The moved name changed owners: holders of [comp] bindings must
       re-resolve (and will then trip Wrong_shard and re-fetch). *)
    Sp_naming.Name_coherence.note_change comp
  end

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

let connect t ~node =
  let c =
    {
      c_node = node;
      c_domain = Sp_obj.Sdomain.create ~node (t.cl_name ^ "-client:" ^ node);
      c_cluster = t;
      c_cache = Hashtbl.create 32;
      c_version = t.cl_version;
      c_overrides = Hashtbl.copy t.cl_overrides;
      c_lease_until = Array.make (Array.length t.cl_shards) 0;
      c_warm_hits = 0;
      c_negative_hits = 0;
      c_cold_opens = 0;
      c_invalidations = 0;
      c_wrong_shard = 0;
      c_stale_blocked = 0;
      c_stale_serves = 0;
    }
  in
  Hashtbl.replace t.cl_clients node c;
  c

let client_stats c =
  {
    cs_warm_hits = c.c_warm_hits;
    cs_negative_hits = c.c_negative_hits;
    cs_cold_opens = c.c_cold_opens;
    cs_invalidations = c.c_invalidations;
    cs_wrong_shard = c.c_wrong_shard;
    cs_stale_blocked = c.c_stale_blocked;
    cs_stale_serves = c.c_stale_serves;
  }

let lease_valid c s = Simclock.now () < c.c_lease_until.(s)

(* The client's own expiry bound for its lease on shard [s] — what the
   partition sweeps use to decide which warm serves were legal. *)
let lease_deadline c s = c.c_lease_until.(s)

(* Re-fetch the shard map from the first reachable shard (one small
   RPC); raises [Io_error] when every shard is unreachable. *)
let refetch_map c =
  let t = c.c_cluster in
  let n = Array.length t.cl_shards in
  let rec go i =
    if i >= n then
      raise (Fserr.Io_error (t.cl_name ^ ": no shard reachable for map re-fetch"))
    else
      let sh = t.cl_shards.(i) in
      match
        Net.rpc_retry ~retries:1 t.cl_net ~src:c.c_node ~dst:sh.sh_node ~bytes:128
          (fun () ->
            ( t.cl_version,
              Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cl_overrides [] ))
      with
      | version, overrides ->
          c.c_version <- version;
          Hashtbl.reset c.c_overrides;
          List.iter (fun (k, v) -> Hashtbl.replace c.c_overrides k v) overrides
      | exception (Net.Timeout _ | Fserr.Io_error _) -> go (i + 1)
  in
  go 0

(* Run [f shard] server-side on the owning shard, under ownership check
   and lease grant, re-fetching the map on {!Wrong_shard}.  [f] runs
   inside one [rpc_retry] (idempotency-token) envelope. *)
let with_placement c path ~bytes f =
  let t = c.c_cluster in
  let rec go tries =
    let s = client_owner c (top_component path) in
    let sh = t.cl_shards.(s) in
    match
      Net.rpc_retry t.cl_net ~src:c.c_node ~dst:sh.sh_node ~bytes (fun () ->
          check_owner t sh path;
          let v = f sh in
          grant t sh c.c_node;
          v)
    with
    | v ->
        if t.cl_lease_ns > 0 then
          c.c_lease_until.(s) <- Simclock.now () + t.cl_lease_ns;
        (s, v)
    | exception Wrong_shard _ when tries < 3 ->
        c.c_wrong_shard <- c.c_wrong_shard + 1;
        refetch_map c;
        go (tries + 1)
  in
  go 0

let wrap_remote c s (f_srv : File.t) =
  let t = c.c_cluster in
  Sp_dfs.Dfs.remote_file t.cl_net ~client:c.c_node ~client_domain:c.c_domain
    ~server:t.cl_shards.(s).sh_node f_srv

let cache_store c key s obj =
  let t = c.c_cluster in
  if t.cl_lease_ns > 0 then
    Hashtbl.replace c.c_cache key
      {
        ce_file = obj;
        ce_shard = s;
        ce_epoch = Sp_naming.Name_coherence.epoch ();
        ce_version = c.c_version;
        ce_incarnation = Sp_obj.Sdomain.id (dfs_domain t.cl_shards.(s));
      }

(* A warm entry serves only while: the lease on its shard is unexpired
   (the partition-safety valve — [c_stale_blocked] counts the valve
   firing, and [c_stale_serves] would count a serve that slipped past
   it, asserted 0 by the sweep), no restart fenced the epoch, the shard
   map hasn't moved, and the serving incarnation is unchanged. *)
let cache_lookup c key =
  let t = c.c_cluster in
  match Hashtbl.find_opt c.c_cache key with
  | None -> None
  | Some e ->
      let lease_ok = lease_valid c e.ce_shard in
      let fresh =
        lease_ok
        && e.ce_epoch = Sp_naming.Name_coherence.epoch ()
        && e.ce_version = c.c_version
        && e.ce_incarnation
           = Sp_obj.Sdomain.id (dfs_domain t.cl_shards.(e.ce_shard))
      in
      if fresh then begin
        if not (lease_valid c e.ce_shard) then
          c.c_stale_serves <- c.c_stale_serves + 1;
        Some e
      end
      else begin
        if not lease_ok then c.c_stale_blocked <- c.c_stale_blocked + 1;
        Hashtbl.remove c.c_cache key;
        None
      end

let as_mutator c f =
  let saved = !current_mutator in
  current_mutator := Some c.c_node;
  Fun.protect ~finally:(fun () -> current_mutator := saved) f

let no_such path = raise (Fserr.No_such_file (Sname.to_string path))

(* The headline operation.  Warm (lease-held, pushed-coherent) hits are
   answered from the client table with zero network messages and zero
   simulated time; everything else is one RPC to the owning shard. *)
let open_file c path =
  let key = Sname.to_string path in
  match cache_lookup c key with
  | Some { ce_file = Some f; _ } ->
      c.c_warm_hits <- c.c_warm_hits + 1;
      f
  | Some { ce_file = None; _ } ->
      c.c_negative_hits <- c.c_negative_hits + 1;
      no_such path
  | None -> (
      let s, found =
        with_placement c path ~bytes:64 (fun sh ->
            let t = c.c_cluster in
            match Stackable.open_file (top sh) path with
            | f ->
                record_served t sh key
                  (List.hd (List.rev (Sname.components path)))
                  c.c_node;
                Some (gate (dfs_domain sh) f)
            | exception Fserr.No_such_file _ ->
                record_served t sh key
                  (List.hd (List.rev (Sname.components path)))
                  c.c_node;
                None)
      in
      c.c_cold_opens <- c.c_cold_opens + 1;
      match found with
      | Some f_srv ->
          let rf = wrap_remote c s f_srv in
          cache_store c key s (Some rf);
          rf
      | None ->
          cache_store c key s None;
          no_such path)

let create c path =
  let key = Sname.to_string path in
  as_mutator c (fun () ->
      let s, f_srv =
        with_placement c path ~bytes:64 (fun sh ->
            let t = c.c_cluster in
            let f = Stackable.create (top sh) path in
            record_served t sh key
              (List.hd (List.rev (Sname.components path)))
              c.c_node;
            gate (dfs_domain sh) f)
      in
      let rf = wrap_remote c s f_srv in
      cache_store c key s (Some rf);
      rf)

let mkdir c path =
  as_mutator c (fun () ->
      ignore (with_placement c path ~bytes:64 (fun sh -> Stackable.mkdir (top sh) path)))

let remove c path =
  let key = Sname.to_string path in
  as_mutator c (fun () ->
      let s, () =
        with_placement c path ~bytes:64 (fun sh -> Stackable.remove (top sh) path)
      in
      cache_store c key s None)

(* Durable cut on the shard owning [path]. *)
let sync_path c path =
  ignore (with_placement c path ~bytes:16 (fun sh -> Stackable.sync (top sh)))

let sync_all c =
  let t = c.c_cluster in
  Array.iter
    (fun sh ->
      ignore
        (Net.rpc_retry t.cl_net ~src:c.c_node ~dst:sh.sh_node ~bytes:16 (fun () ->
             Stackable.sync (top sh))))
    t.cl_shards
