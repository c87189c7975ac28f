(* Sp_cluster: hash placement, lease-backed client caching (the
   zero-message warm open), invalidation pushes, the lease-expiry
   partition valve, Wrong_shard convergence after a rebalance, shard
   kill/restart durability, and invalidation-storm shedding through the
   per-destination breakers. *)

module F = Sp_core.File
module Fserr = Sp_core.Fserr
module N = Sp_naming.Sname
module Net = Sp_dfs.Net
module CL = Sp_cluster.Cluster
module Clock = Sp_sim.Simclock

let uid = ref 0

let tag p =
  incr uid;
  Printf.sprintf "tcl-%s%d" p !uid

(* Every cluster is shut down before the test returns: a leaked
   coherence subscription would receive other tests' note_changes. *)
let with_cluster ?lease_ns ?(nodes = 2) p f =
  Util.in_world (fun () ->
      let t = CL.make ~name:(tag p) ?lease_ns ~net:(Net.create ()) ~nodes () in
      Fun.protect ~finally:(fun () -> CL.shutdown t) (fun () -> f t))

let test_placement_deterministic_and_spread () =
  with_cluster ~nodes:4 "place" (fun t ->
      let names = List.init 32 (fun i -> N.of_string (Printf.sprintf "c%d/f" i)) in
      let owners = List.map (CL.owner t) names in
      List.iter2
        (fun p o ->
          Alcotest.(check int)
            "owner is stable" o (CL.owner t p);
          Alcotest.(check bool) "owner in range" true (o >= 0 && o < 4))
        names owners;
      let distinct = List.sort_uniq compare owners in
      Alcotest.(check bool)
        "components spread over several shards" true
        (List.length distinct >= 2))

(* The acceptance-criterion assertion: a lease-held warm open crosses
   the network zero times and costs zero simulated time. *)
let test_warm_open_zero_messages () =
  with_cluster "warm" (fun t ->
      let c = CL.connect t ~node:"warm-cl" in
      CL.mkdir c (N.of_string "w");
      let f = CL.create c (N.of_string "w/f") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "hello"));
      let msgs0 = Sp_sim.Metrics.net_messages () in
      let now0 = Clock.now () in
      let f' = CL.open_file c (N.of_string "w/f") in
      Alcotest.(check int)
        "zero network messages" 0
        (Sp_sim.Metrics.net_messages () - msgs0);
      Alcotest.(check int) "zero simulated time" 0 (Clock.now () - now0);
      Alcotest.(check int)
        "one warm hit" 1
        (CL.client_stats c).CL.cs_warm_hits;
      Util.check_str "warm handle serves content" "hello" (F.read f' ~pos:0 ~len:5))

let test_leaseless_control_pays_rpc () =
  with_cluster ~lease_ns:0 "nolease" (fun t ->
      let c = CL.connect t ~node:"nolease-cl" in
      CL.mkdir c (N.of_string "w");
      ignore (CL.create c (N.of_string "w/f"));
      let msgs0 = Sp_sim.Metrics.net_messages () in
      ignore (CL.open_file c (N.of_string "w/f"));
      ignore (CL.open_file c (N.of_string "w/f"));
      Alcotest.(check bool)
        "every leaseless open crosses the network" true
        (Sp_sim.Metrics.net_messages () - msgs0 >= 2);
      Alcotest.(check int)
        "no warm hits without leases" 0
        (CL.client_stats c).CL.cs_warm_hits)

let test_invalidation_push_delivery () =
  with_cluster "inval" (fun t ->
      let a = CL.connect t ~node:"inval-a" in
      let b = CL.connect t ~node:"inval-b" in
      CL.mkdir a (N.of_string "h");
      let f = CL.create a (N.of_string "h/f") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "v1"));
      ignore (CL.open_file b (N.of_string "h/f"));
      CL.remove a (N.of_string "h/f");
      Alcotest.(check int)
        "push removed b's entry" 1
        (CL.client_stats b).CL.cs_invalidations;
      Alcotest.(check int) "one push delivered" 1 (CL.stats t).CL.s_inval_sent;
      (match CL.open_file b (N.of_string "h/f") with
      | _ -> Alcotest.fail "b served a binding its push invalidated"
      | exception Fserr.No_such_file _ -> ());
      Alcotest.(check int)
        "no stale serve" 0
        (CL.client_stats b).CL.cs_stale_serves)

(* The partition-safety valve: a partitioned client keeps serving warm
   while its lease lasts, then refuses its cache — loudly, via the cold
   path's failure — and recovers once the partition heals. *)
let test_lease_expiry_fences_partitioned_client () =
  with_cluster "fence" (fun t ->
      let a = CL.connect t ~node:"fence-a" in
      let b = CL.connect t ~node:"fence-b" in
      CL.mkdir a (N.of_string "p");
      let f = CL.create a (N.of_string "p/f") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "safe"));
      ignore (CL.open_file b (N.of_string "p/f"));
      let s = CL.owner t (N.of_string "p/f") in
      Sp_fault.arm
        (Sp_fault.plan (Sp_fault.partition ~a:"fence-b" ~b:(CL.shard_node t s)));
      Fun.protect ~finally:Sp_fault.disarm (fun () ->
          (* lease still held: the cache IS the availability win *)
          let msgs0 = Sp_sim.Metrics.net_messages () in
          ignore (CL.open_file b (N.of_string "p/f"));
          Alcotest.(check int)
            "warm service continues under partition" 0
            (Sp_sim.Metrics.net_messages () - msgs0);
          (* lease over: the valve must refuse the cache and fail loudly *)
          let dl = CL.lease_deadline b s in
          Clock.advance (dl - Clock.now () + 1);
          (match CL.open_file b (N.of_string "p/f") with
          | _ -> Alcotest.fail "stale cache served past the lease deadline"
          | exception Fserr.Io_error _ -> ()));
      Alcotest.(check bool)
        "valve fired" true
        ((CL.client_stats b).CL.cs_stale_blocked >= 1);
      Alcotest.(check int)
        "zero stale serves" 0
        (CL.client_stats b).CL.cs_stale_serves;
      (* healed: cold reload *)
      Util.check_str "post-heal reload" "safe"
        (F.read (CL.open_file b (N.of_string "p/f")) ~pos:0 ~len:4))

let test_rebalance_wrong_shard_refetch () =
  with_cluster ~nodes:3 "rebal" (fun t ->
      let a = CL.connect t ~node:"rebal-a" in
      let b = CL.connect t ~node:"rebal-b" in
      CL.mkdir a (N.of_string "r");
      let f = CL.create a (N.of_string "r/f") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "moved intact"));
      CL.sync_all a;
      ignore (CL.open_file b (N.of_string "r/f"));
      let src = CL.owner t (N.of_string "r") in
      let dst = (src + 1) mod 3 in
      CL.rebalance t "r" ~to_:dst;
      Alcotest.(check int) "placement flipped" dst (CL.owner t (N.of_string "r"));
      (* run b's lease out so its pre-move cache entry cannot mask the
         stale map (the entry is only as live as the lease anyway) *)
      Clock.advance (CL.lease_deadline b src - Clock.now () + 1);
      let got = F.read_all (CL.open_file b (N.of_string "r/f")) in
      Util.check_str "stale-mapped client converged on the new owner"
        "moved intact" got;
      Alcotest.(check bool)
        "convergence went through Wrong_shard" true
        ((CL.client_stats b).CL.cs_wrong_shard >= 1))

let test_shard_kill_durability () =
  with_cluster "kill" (fun t ->
      let c = CL.connect t ~node:"kill-cl" in
      CL.mkdir c (N.of_string "k");
      let f = CL.create c (N.of_string "k/f") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "synced survives"));
      CL.sync_path c (N.of_string "k/f");
      let s = CL.owner t (N.of_string "k/f") in
      CL.kill_shard ~store:true t s;
      (* the store level is dead: the supervised retry remounts the
         journaled twins (journal replay) and the op completes *)
      let got =
        Sp_supervise.call (fun () ->
            F.read_all (CL.open_file c (N.of_string "k/f")))
      in
      Util.check_str "synced bytes survive the store kill" "synced survives"
        got;
      Alcotest.(check bool) "restart happened" true (CL.restarts t >= 1);
      Alcotest.(check int)
        "no stale serve across incarnations" 0
        (CL.client_stats c).CL.cs_stale_serves)

(* Invalidation storm against a partitioned holder: the first push pays
   one timeout and trips that destination's breaker, the second sheds on
   the open breaker — while the healthy holder receives every push. *)
let test_storm_sheds_through_breaker () =
  with_cluster "storm" (fun t ->
      let m = CL.connect t ~node:"storm-m" in
      let v = CL.connect t ~node:"storm-v" in
      let o = CL.connect t ~node:"storm-o" in
      CL.mkdir m (N.of_string "hot");
      ignore (CL.create m (N.of_string "hot/x"));
      ignore (CL.create m (N.of_string "hot/y"));
      List.iter
        (fun c ->
          ignore (CL.open_file c (N.of_string "hot/x"));
          ignore (CL.open_file c (N.of_string "hot/y")))
        [ v; o ];
      let s = CL.owner t (N.of_string "hot") in
      Sp_fault.arm
        (Sp_fault.plan (Sp_fault.partition ~a:"storm-v" ~b:(CL.shard_node t s)));
      Fun.protect ~finally:Sp_fault.disarm (fun () ->
          CL.remove m (N.of_string "hot/x");
          CL.remove m (N.of_string "hot/y"));
      let st = CL.stats t in
      Alcotest.(check int) "healthy holder got both pushes" 2
        (CL.client_stats o).CL.cs_invalidations;
      Alcotest.(check int) "partitioned holder got none" 0
        (CL.client_stats v).CL.cs_invalidations;
      Alcotest.(check int) "both pushes to the victim shed" 2 st.CL.s_inval_shed;
      Alcotest.(check int) "pushes to the healthy holder delivered" 2
        st.CL.s_inval_sent)

(* A small concurrent smoke of the sweep itself, kill and partition. *)
let test_shard_sweep_smoke () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let r =
        Sp_sweep.run ~stride:24
          (Sp_cluster.Shard_crash_sweep.scenario ~op_deadline_ns:10_000_000_000
             ~nodes:2 ~clients:2 ~ops:16 ~seed:5 ())
      in
      let counter = Sp_sweep.counter r.Sp_sweep.counters in
      Alcotest.(check bool) "kill points ran" true (r.Sp_sweep.points >= 1);
      Alcotest.(check int) "all kill points served" r.Sp_sweep.points
        (Sp_sweep.count r "served");
      Alcotest.(check int) "zero stale serves" 0 (counter "stale_served");
      Alcotest.(check bool) "restarts observed" true (counter "restarts" > 0);
      Alcotest.(check bool) "warm hits observed" true (counter "warm" > 0))

let test_shard_sweep_partition_smoke () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let r =
        Sp_sweep.run ~stride:24
          (Sp_cluster.Shard_crash_sweep.scenario ~partition:true
             ~op_deadline_ns:10_000_000_000 ~nodes:2 ~clients:2 ~ops:16 ~seed:5 ())
      in
      let counter = Sp_sweep.counter r.Sp_sweep.counters in
      Alcotest.(check bool) "partition points ran" true (r.Sp_sweep.points >= 1);
      Alcotest.(check int) "all partition points served" r.Sp_sweep.points
        (Sp_sweep.count r "served");
      Alcotest.(check int) "zero stale serves" 0 (counter "stale_served");
      Alcotest.(check bool)
        "pushes were shed, lost or lease-lapsed" true
        (counter "inval_shed" + counter "inval_lapsed" > 0))

let suite =
  [
    Alcotest.test_case "placement: deterministic, spread" `Quick
      test_placement_deterministic_and_spread;
    Alcotest.test_case "warm open: zero messages, zero time" `Quick
      test_warm_open_zero_messages;
    Alcotest.test_case "leaseless control pays the RPC" `Quick
      test_leaseless_control_pays_rpc;
    Alcotest.test_case "invalidation push delivery" `Quick
      test_invalidation_push_delivery;
    Alcotest.test_case "lease expiry fences a partitioned client" `Quick
      test_lease_expiry_fences_partitioned_client;
    Alcotest.test_case "rebalance: Wrong_shard convergence" `Quick
      test_rebalance_wrong_shard_refetch;
    Alcotest.test_case "shard kill: durability through restart" `Quick
      test_shard_kill_durability;
    Alcotest.test_case "storm: breaker sheds per destination" `Quick
      test_storm_sheds_through_breaker;
    Alcotest.test_case "sweep smoke: kill (2x2)" `Quick test_shard_sweep_smoke;
    Alcotest.test_case "sweep smoke: partition (2x2)" `Quick
      test_shard_sweep_partition_smoke;
  ]
