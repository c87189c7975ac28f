(* Shard crash/partition sweep for [Sp_cluster] — the clustered sibling
   of [Sp_failover.Layer_crash_sweep].

   A fresh N-shard cluster is built per point and C concurrent
   [Sp_sched] client tasks run a seeded workload (slot writes to a
   private per-client file, periodic syncs, warm opens, hot-directory
   churn that exercises the invalidation push).  Two fault modes:

   - {e kill} (default): at a swept (strided) global op boundary one
     shard's serving domain is fail-stopped — alternating the DFS front
     and the storage level (whose rebuild remounts the journaled twins:
     full crash recovery).  Clients ride through via [Sp_avail.call];
     verification applies the event-ordered per-slot durability floor
     (a slot value is pinned iff its newest completed write either
     completed before the client's last pre-kill sync or started after
     recovery), demands zero stale lease serves, a bounded kill ->
     served-again gap, and a clean fsck of every shard's twin disks.

   - {e partition}: no kill; at the swept boundary the network between
     one victim client and the hot shard is cut.  While partitioned the
     victim's lease-held cache keeps serving warm (the availability
     win), a mutator rewrites two bindings the victim has cached (the
     pushes time out and then shed through the breaker), and once the
     lease expires the victim's cache self-fences — warm service stops,
     loudly.  After healing, the victim must observe the mutated
     content.  Zero warm serves past the lease bound, ever.  The
     leaseless control ([lease_ns = 0]) has no warm service at all
     while partitioned, so every point ends [Unavailable] — the control
     demonstrating the leases are what buy availability, and the lease
     {e expiry} is what keeps them safe. *)

module File = Sp_core.File
module Stackable = Sp_core.Stackable
module Fserr = Sp_core.Fserr
module Sname = Sp_naming.Sname
module Net = Sp_dfs.Net
module Rng = Sp_fault.Rng
module Simclock = Sp_sim.Simclock
module Live = Sp_sweep.Live

let slots = 8
let slot_bytes = 512
let marker_bytes = 16

let slot_data k slot seq =
  Bytes.init slot_bytes (fun j ->
      Char.chr (((k * 31) + (slot * 7) + (seq * 13) + j) land 0xff))

let marker tag seq =
  Bytes.init marker_bytes (fun j -> Char.chr (((tag * 5) + (seq * 11) + j) land 0xff))

let dir_path k = Sname.of_components [ "d" ^ string_of_int k ]
let file_path k = Sname.of_components [ "d" ^ string_of_int k; "f" ]
let hot_dir = Sname.of_components [ "hot" ]
let hot_file k = Sname.of_components [ "hot"; "m" ^ string_of_int k ]
let hot_x = Sname.of_components [ "hot"; "x" ]
let hot_y = Sname.of_components [ "hot"; "y" ]

let client_breaker k = "dsw:c" ^ string_of_int k

(* ------------------------------------------------------------------ *)
(* Point setup                                                         *)
(* ------------------------------------------------------------------ *)

(* Fixed cluster/client names every point: layer registries are keyed
   by instance name, so rebuilt points replace their predecessors
   instead of accumulating.  The network is per point too, so its
   retry-jitter rng never carries one point's history into the next. *)
let setup ~nodes ~clients ~lease_ns ~seed =
  let net = Net.create ~seed () in
  let t = Cluster.make ~name:"dsw" ~lease_ns ~net ~nodes () in
  let cls =
    Array.init clients (fun k -> Cluster.connect t ~node:("c" ^ string_of_int k))
  in
  for k = 0 to clients - 1 do
    Cluster.mkdir cls.(k) (dir_path k);
    let f = Cluster.create cls.(k) (file_path k) in
    for slot = 0 to slots - 1 do
      ignore (File.write f ~pos:(slot * slot_bytes) (slot_data k slot 0))
    done
  done;
  Cluster.mkdir cls.(0) hot_dir;
  for k = 0 to clients - 1 do
    let f = Cluster.create cls.(k) (hot_file k) in
    ignore (File.write f ~pos:0 (marker k 0))
  done;
  List.iter
    (fun (p, tag) ->
      let f = Cluster.create cls.(0) p in
      ignore (File.write f ~pos:0 (marker tag 0)))
    [ (hot_x, 101); (hot_y, 102) ];
  Cluster.sync_all cls.(0);
  (t, cls)

(* The acceptance-criterion metric assertion: with leases on, an open
   of an entry just minted must cross the network zero times. *)
let warm_zero_message_check cls =
  (* First open may be cold (setup's syncs can outlive the lease); it
     re-grants the lease.  The immediately-following open must then be a
     warm hit: zero simulated time, zero network messages. *)
  ignore (Cluster.open_file cls.(0) hot_x);
  let before = Sp_sim.Metrics.net_messages () in
  ignore (Cluster.open_file cls.(0) hot_x);
  let d = Sp_sim.Metrics.net_messages () - before in
  if d = 0 then None
  else Some (Printf.sprintf "warm lease-held open charged %d network messages" d)

let teardown t =
  Sp_fault.disarm ();
  Cluster.shutdown t

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let zeros = Bytes.make slot_bytes '\000'

let slot_slice data slot =
  let b = Bytes.make slot_bytes '\000' in
  let pos = slot * slot_bytes in
  let avail = max 0 (min slot_bytes (Bytes.length data - pos)) in
  if avail > 0 then Bytes.blit data pos b 0 avail;
  b

(* Per-slot durability floor.  [cut.(k)] is the highest op-start event
   watermark covered by a sync of client [k] that completed before the
   kill; [safe_after] is the recovery watermark (-1 with no kill: every
   completed write is pinned; [max_int] if recovery was never
   observed).  The served slot value must be the newest pinned write or
   any write newer than it (vulnerable window / failed attempts). *)
let verify_slots t recs cut ~safe_after =
  let problem = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt
  in
  Array.iteri
    (fun k rl ->
      let path = file_path k in
      let got =
        try
          Sp_supervise.call (fun () ->
              File.read_all
                (Stackable.open_file (Cluster.shard_top t (Cluster.owner t path)) path))
        with
        | Fserr.Io_error m | Fserr.Checksum_error m ->
            fail "d%d/f unreadable after recovery: %s" k m;
            Bytes.empty
      in
      for slot = 0 to slots - 1 do
        if !problem = None then begin
          (* Every write is one whole slot, newest first. *)
          let rl = List.filter (fun r -> r.Live.pos = slot * slot_bytes) rl in
          let rec split newer = function
            | [] -> (List.rev newer, None)
            | r :: _ when Live.pinned r ~cut:cut.(k) ~safe_after ->
                (List.rev newer, Some r)
            | r :: rest -> split (r :: newer) rest
          in
          let newer, pinned = split [] rl in
          let allowed =
            (match pinned with Some r -> [ r.Live.data ] | None -> [ zeros ])
            @ List.map (fun r -> r.Live.data) newer
          in
          let slice = slot_slice got slot in
          if not (List.exists (fun d -> Bytes.equal d slice) allowed) then
            fail "d%d/f slot %d holds none of the %d admissible values%s" k slot
              (List.length allowed)
              (match pinned with
              | Some r -> Printf.sprintf " (pinned write seq %d lost)" r.Live.seq
              | None -> "")
        end
      done)
    recs;
  !problem

let fsck_all t =
  let nodes = Cluster.nodes t in
  let problem = ref None in
  for i = 0 to nodes - 1 do
    if !problem = None then begin
      let a, b = Cluster.shard_disks t i in
      List.iter
        (fun (disk, twin) ->
          if !problem = None then
            Option.iter
              (fun m -> problem := Some (Printf.sprintf "shard %d twin %s: %s" i twin m))
              (Sp_sfs.Fsck.summary (Sp_sfs.Fsck.check disk)))
        [ (a, "a"); (b, "b") ]
    end
  done;
  !problem

let sum_client_stats cls =
  Array.fold_left
    (fun (w, c, ws, sb, ss) cl ->
      let s = Cluster.client_stats cl in
      ( w + s.Cluster.cs_warm_hits + s.Cluster.cs_negative_hits,
        c + s.Cluster.cs_cold_opens,
        ws + s.Cluster.cs_wrong_shard,
        sb + s.Cluster.cs_stale_blocked,
        ss + s.Cluster.cs_stale_serves ))
    (0, 0, 0, 0, 0) cls


(* ------------------------------------------------------------------ *)
(* Shared point machinery                                              *)
(* ------------------------------------------------------------------ *)

(* A fresh cluster with every client breaker closed, plus the setup-time
   check of the lease fast path. *)
let prepare ~nodes ~clients ~lease_ns ~seed =
  let t, cls = setup ~nodes ~clients ~lease_ns ~seed in
  for k = 0 to clients - 1 do
    Sp_avail.Breaker.reset (client_breaker k)
  done;
  let setup_bad = if lease_ns > 0 then warm_zero_message_check cls else None in
  (t, cls, setup_bad)

let loud = function
  | Net.Timeout m -> Some ("net: " ^ m)
  | Cluster.Wrong_shard c -> Some ("wrong shard not converged: " ^ c)
  | _ -> None

(* One client op under the availability contract; the backoff jitter is
   seeded per client and per boundary. *)
let client_op live ~seed ~deadline_ns k f =
  Live.call live ~name:(client_breaker k) ~deadline_ns
    ~rng:(Rng.create (seed + ((k + 1) * 104729) + Live.boundaries live))
    f

(* Baseline: setup wrote and synced every slot (seq 0, event 0). *)
(* Client [k]'s write of a whole [slot], started at event [seq]. *)
let slot_rec k slot seq ~done_at =
  { Live.pos = slot * slot_bytes; data = slot_data k slot seq; seq; done_at }

let baseline_recs clients =
  Array.init clients (fun k -> List.init slots (fun slot -> slot_rec k slot 0 ~done_at:0))

let slot_write live ~op recs cls k wl =
  let seq = Live.tick live in
  let slot = Rng.int wl slots in
  let r = slot_rec k slot seq ~done_at:(-1) in
  recs.(k) <- r :: recs.(k);
  match
    op k (fun () ->
        (* re-resolve every attempt: a proxy minted by a dead
           incarnation must not be retried into *)
        let f = Cluster.open_file cls.(k) (file_path k) in
        ignore (File.write f ~pos:r.pos r.data))
  with
  | Some () -> r.done_at <- Live.tick live
  | None -> ()

(* Remove/create/write, made idempotent by hand because an availability
   retry re-executes the closure whole. *)
let recreate cl p data () =
  (try Cluster.remove cl p with Fserr.No_such_file _ -> ());
  let f =
    try Cluster.create cl p with Fserr.Already_exists _ -> Cluster.open_file cl p
  in
  ignore (File.write f ~pos:0 data)

(* Run the client tasks, heal, make every shard durable, and judge: an
   escaped failure, a broken setup check, a loud client op, and only
   then the mode's own [oracle]. *)
let conclude t ~nodes ~seed ~live ~setup_bad tasks oracle =
  Fun.protect ~finally:(fun () -> teardown t) @@ fun () ->
  match
    ignore (Sp_sched.run ~seed tasks);
    Sp_fault.disarm ();
    for i = 0 to nodes - 1 do
      Sp_supervise.call (fun () -> Stackable.sync (Cluster.shard_top t i))
    done
  with
  | exception Fserr.Dead_domain who -> Live.Unavailable who
  | exception Sp_supervise.Give_up msg -> Live.Unavailable msg
  | exception Fserr.Io_error m -> Live.Lost ("io: " ^ m)
  | () -> (
      match (setup_bad, Live.loud_failure live) with
      | Some m, _ -> Live.Corrupt m
      | None, Some m -> Live.Unavailable m
      | None, None -> oracle ())

let point_counters t cls live ~stale_obs =
  let warm, cold, ws, sb, ss = sum_client_stats cls in
  let cs = Cluster.stats t in
  let sum n = Sp_sweep.Sum n in
  [
    ("restarts", sum (Cluster.restarts t));
    ("warm", sum warm);
    ("cold", sum cold);
    ("inval_sent", sum cs.Cluster.s_inval_sent);
    ("inval_shed", sum cs.Cluster.s_inval_shed);
    ("inval_lapsed", sum cs.Cluster.s_inval_lapsed);
    ("stale_blocked", sum sb);
    ("stale_served", sum (ss + stale_obs));
    ("wrong_shard", sum ws);
  ]
  @ Live.counters live

(* ------------------------------------------------------------------ *)
(* Kill mode                                                           *)
(* ------------------------------------------------------------------ *)

let run_point_kill ~nodes ~clients ~cops ~lease_ns ~seed ~kill_at
    ~victim_shard ~store ~deadline_ns =
  let t, cls, setup_bad = prepare ~nodes ~clients ~lease_ns ~seed in
  let live =
    Live.create ~at:kill_at
      ~fault:(fun () -> Cluster.kill_shard ~store t victim_shard)
      ~restarts:(fun () -> Cluster.restarts t)
      ~loud
  in
  let op = client_op live ~seed ~deadline_ns in
  let recs = baseline_recs clients in
  let cut = Array.make clients 0 in
  let client_task k () =
    let wl = Sp_sweep.Files.client_rng ~seed k in
    Sp_sched.sleep (k * 1_000);
    for i = 1 to cops do
      Live.boundary live;
      if i mod 3 = 0 then begin
        (* durable cut for this client's shard *)
        let s0 = Live.events live in
        match op k (fun () -> Cluster.sync_path cls.(k) (dir_path k)) with
        | Some () -> if not (Live.fired live) then cut.(k) <- max cut.(k) s0
        | None -> ()
      end
      else if i mod 8 = 5 && clients > 1 then
        (* warm/cold open of a neighbour's hot file: the read side of
           the invalidation protocol.  The neighbour's recreate is a
           remove/create/write sequence, so a racing reader legally sees
           No_such_file or a still-empty file — only a torn marker (a
           length strictly between 0 and the marker size) is damage. *)
        let n = (k + 1) mod clients in
        ignore
          (op k (fun () ->
               match Cluster.open_file cls.(k) (hot_file n) with
               | f ->
                   let d = File.read_all f in
                   let len = Bytes.length d in
                   if len <> 0 && len <> marker_bytes then
                     raise (Fserr.Io_error "torn hot marker")
               | exception Fserr.No_such_file _ -> ()))
      else if i mod 8 = 7 then
        (* recreate own hot file: drives invalidation pushes to every
           registered neighbour *)
        ignore (op k (recreate cls.(k) (hot_file k) (marker k i)))
      else slot_write live ~op recs cls k wl
    done
  in
  let outcome =
    conclude t ~nodes ~seed ~live ~setup_bad (List.init clients client_task)
      (fun () ->
        let warm, _, _, _, stale_serves = sum_client_stats cls in
        if stale_serves > 0 then
          Live.Lost (Printf.sprintf "%d warm serves past the lease bound" stale_serves)
        else if not (Live.fired live) then
          Live.Corrupt "kill point beyond the executed boundaries"
        else
          match verify_slots t recs cut ~safe_after:(Live.safe_after live) with
          | Some msg -> Live.Lost msg
          | None -> (
              match fsck_all t with
              | Some msg -> Live.Corrupt msg
              | None ->
                  if Cluster.restarts t = 0 then
                    Live.Corrupt "supervisor never restarted anything"
                  else if lease_ns > 0 && warm = 0 then
                    Live.Corrupt "leases enabled but no warm hit was ever served"
                  else Live.Served))
  in
  (outcome, point_counters t cls live ~stale_obs:0)

(* ------------------------------------------------------------------ *)
(* Partition mode                                                      *)
(* ------------------------------------------------------------------ *)

let probe_gap_ns = 3_000_000
let probes = 20

let run_point_partition ~nodes ~clients ~cops ~lease_ns ~seed ~arm_at
    ~victim ~deadline_ns =
  let t, cls, setup_bad = prepare ~nodes ~clients ~lease_ns ~seed in
  let hot_shard = Cluster.owner t hot_dir in
  let live =
    Live.create ~at:arm_at
      ~fault:(fun () ->
        Sp_fault.arm
          (Sp_fault.plan ~seed
             (Sp_fault.partition
                ~a:("c" ^ string_of_int victim)
                ~b:(Cluster.shard_node t hot_shard))))
      ~restarts:(fun () -> Cluster.restarts t)
      ~loud
  in
  let op = client_op live ~seed ~deadline_ns in
  let mutator = (victim + 1) mod clients in
  (* the victim must hold cached bindings for the probe files before
     the cut lands *)
  (* Best-effort cache warming: the partition can arm (another task's
     boundary) while the victim is suspended inside one of these opens,
     so a network failure here is a benign race, not a verdict. *)
  let prime () =
    List.iter
      (fun p ->
        try ignore (Cluster.open_file cls.(victim) p)
        with Fserr.No_such_file _ | Fserr.Io_error _ | Net.Timeout _ -> ())
      [ hot_x; hot_y ]
  in
  prime ();
  let recs = baseline_recs clients in
  let cut = Array.make clients 0 in
  let mutated = ref 0 in
  let warm_in_part = ref 0 in
  let stale_obs = ref 0 in
  let post_heal_bad = ref None in
  let mutate () =
    (* two mutations of victim-cached bindings: the first push times
       out against the partition and trips the breaker, the second
       sheds on the open breaker *)
    ignore (op mutator (recreate cls.(mutator) hot_x (marker 101 1)));
    mutated := 1;
    ignore (op mutator (recreate cls.(mutator) hot_y (marker 102 2)));
    mutated := 2
  in
  let normal_task k () =
    let wl = Sp_sweep.Files.client_rng ~seed k in
    Sp_sched.sleep (k * 1_000);
    for i = 1 to cops do
      Live.boundary live;
      if k = mutator && Live.fired live && !mutated < 2 then mutate ()
      else if i mod 3 = 0 then (
        let s0 = Live.events live in
        match op k (fun () -> Cluster.sync_path cls.(k) (dir_path k)) with
        | Some () -> cut.(k) <- max cut.(k) s0
        | None -> ())
      else slot_write live ~op recs cls k wl
    done;
    (* the mutator may exhaust its loop before the cut lands: keep it
       alive (bounded) so the partition always gets its mutations *)
    if k = mutator then begin
      let rec grace n =
        if !mutated < 2 && n > 0 then
          if Live.fired live then mutate ()
          else begin
            Sp_sched.sleep 2_000_000;
            grace (n - 1)
          end
      in
      grace 200
    end
  in
  let victim_task () =
    Sp_sched.sleep (victim * 1_000);
    (* pre-cut: keep the hot-shard lease fresh with a real RPC per op
       (warm hits don't renew — they never reach the server) *)
    let pre = ref 0 in
    while (not (Live.fired live)) && !pre < cops * 4 do
      incr pre;
      Live.boundary live;
      if not (Live.fired live) then begin
        (* lease renewal, same benign race as [prime]: the loop itself
           is the retry, so a failure mid-arm must not dirty the
           verdict through a loud-failure note *)
        (try Cluster.sync_path cls.(victim) hot_dir
         with Fserr.Io_error _ | Net.Timeout _ -> ());
        prime ()
      end
    done;
    if Live.fired live then begin
      let expiry = Cluster.lease_deadline cls.(victim) hot_shard in
      for _ = 1 to probes do
        Sp_sched.sleep probe_gap_ns;
        List.iter
          (fun p ->
            let now = Simclock.now () in
            match Cluster.open_file cls.(victim) p with
            | _ -> if now < expiry then incr warm_in_part else incr stale_obs
            | exception Fserr.No_such_file _ ->
                if now < expiry then incr warm_in_part else incr stale_obs
            | exception (Fserr.Io_error _ | Net.Timeout _) ->
                (* partitioned and past the cache: fails loudly, as it
                   must — never silently, never stale *)
                ())
          [ hot_x; hot_y ]
      done;
      (* Wait (bounded, generously: the mutator's recreates queue
         behind every other client's closed-loop ops on the hot shard)
         for BOTH mutations before healing — checking mid-recreate
         would observe the legal remove->create gap as a missing file.
         If the bound still exhausts, skip the post-heal probe; the
         outcome ladder reports [mutated < 2] as a sweep-config
         problem. *)
      let rec wait n =
        if !mutated < 2 && n > 0 then begin
          Sp_sched.sleep 2_000_000;
          wait (n - 1)
        end
      in
      wait 5_000;
      let now = Simclock.now () in
      if now <= expiry then Sp_sched.sleep (expiry - now + 1_000_000);
      Sp_fault.disarm ();
      (* post-heal: the (stale, lease-lapsed) entries must fall cold
         and serve the mutated content *)
      if !mutated >= 2 then
        List.iter
          (fun (p, want, what) ->
            match Cluster.open_file cls.(victim) p with
            | f ->
                let d = File.read_all f in
                if not (Bytes.equal d want) then
                  if !post_heal_bad = None then
                    post_heal_bad :=
                      Some (what ^ ": stale content served after heal")
            | exception e ->
                if !post_heal_bad = None then
                  post_heal_bad := Some (what ^ ": " ^ Printexc.to_string e))
          [ (hot_x, marker 101 1, "hot/x"); (hot_y, marker 102 2, "hot/y") ]
    end
  in
  let tasks =
    List.init clients (fun k -> if k = victim then victim_task else normal_task k)
  in
  let outcome =
    conclude t ~nodes ~seed ~live ~setup_bad tasks (fun () ->
        let _, _, _, _, stale_serves = sum_client_stats cls in
        let vstats = Cluster.client_stats cls.(victim) in
        let cstats = Cluster.stats t in
        let shed = cstats.Cluster.s_inval_shed + cstats.Cluster.s_inval_lapsed in
        if not (Live.fired live) then Live.Corrupt "partition never armed (sweep config)"
        else if !mutated < 2 then Live.Corrupt "mutator never fired"
        else if stale_serves > 0 || !stale_obs > 0 then
          Live.Lost
            (Printf.sprintf "%d warm serves past the lease bound"
               (stale_serves + !stale_obs))
        else if !post_heal_bad <> None then Live.Lost (Option.get !post_heal_bad)
        else
          match verify_slots t recs cut ~safe_after:(-1) with
          | Some msg -> Live.Lost msg
          | None -> (
              match fsck_all t with
              | Some msg -> Live.Corrupt msg
              | None ->
                  if lease_ns = 0 then
                    if !warm_in_part = 0 then
                      Live.Unavailable
                        "leaseless client had no warm service while partitioned"
                    else Live.Lost "leaseless client served warm data"
                  else if !warm_in_part = 0 then
                    Live.Unavailable "no warm service while partitioned"
                  else if vstats.Cluster.cs_stale_blocked = 0 then
                    Live.Corrupt "lease expiry valve never fired"
                  else if shed = 0 then
                    Live.Corrupt
                      "no invalidation push was shed, lost or lease-lapsed"
                  else Live.Served))
  in
  (outcome, point_counters t cls live ~stale_obs:!stale_obs)

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)
(* ------------------------------------------------------------------ *)

let scenario ?(partition = false) ?(lease_ns = Cluster.default_lease_ns)
    ?(op_deadline_ns = 1_000_000_000) ~nodes ~clients ~ops ~seed () =
  if clients < 1 then invalid_arg "Shard_crash_sweep: clients must be >= 1";
  if nodes < 1 then invalid_arg "Shard_crash_sweep: nodes must be >= 1";
  if partition && clients < 2 then
    invalid_arg "Shard_crash_sweep: partition mode needs >= 2 clients";
  let cops = max 8 (ops / clients) in
  let boundaries = clients * cops in
  (* partition points must land while enough client ops remain for the
     mutator and the window to play out *)
  let limit = if partition then max 1 (boundaries / 2) else boundaries in
  {
    Sp_sweep.label = "DFS-SWEEP";
    params =
      [
        ("mode", if partition then "partition" else "kill");
        ("nodes", string_of_int nodes);
        ("clients", string_of_int clients);
        ("leases", Sp_sweep.on_off (lease_ns > 0));
      ];
    trailer = [ ("seed", string_of_int seed); ("ops", string_of_int ops) ];
    classes = Live.classes;
    failing = Live.failing;
    axes = [ ("boundary", limit) ];
    run =
      (fun { Sp_sweep.index; at; _ } ->
        let where, (outcome, counters) =
          if partition then
            let victim = index mod clients in
            ( Printf.sprintf "partition:c%d" victim,
              run_point_partition ~nodes ~clients ~cops ~lease_ns ~seed
                ~arm_at:at ~victim ~deadline_ns:op_deadline_ns )
          else
            let victim_shard = index mod nodes and store = index land 1 = 1 in
            ( Printf.sprintf "kill:n%d.%s" victim_shard
                (if store then "store" else "dfs"),
              run_point_kill ~nodes ~clients ~cops ~lease_ns ~seed ~kill_at:at
                ~victim_shard ~store ~deadline_ns:op_deadline_ns )
        in
        let v = Live.verdict (outcome, counters) in
        { v with Sp_sweep.msg = where ^ ": " ^ v.Sp_sweep.msg });
  }
