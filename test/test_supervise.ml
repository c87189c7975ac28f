(* Sp_supervise: layer-domain fail-stop, supervised restart, coherence
   recovery, and the layer-crash sweep. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module DL = Sp_sfs.Disk_layer
module Sup = Sp_supervise
module LCS = Sp_failover.Layer_crash_sweep

(* A supervised two-level stack: disk layer + coherency layer, journal
   on.  [tag] keeps the global registries distinct per test case. *)
let build ?budget ?backoff_ns tag =
  let disk = Sp_blockdev.Disk.create ~label:(tag ^ ".dev") ~blocks:1024 () in
  DL.mkfs ~journal:true disk;
  let vmm = Sp_vm.Vmm.create ~node:"local" (tag ^ ".vmm") in
  let levels =
    [
      Sup.level ~name:(tag ^ ".disk") (fun ~lower:_ ->
          DL.mount ~name:(tag ^ ".disk") disk);
      Sup.level ~name:(tag ^ ".coh") (fun ~lower ->
          let fs = Sp_coherency.Coherency_layer.make ~vmm ~name:(tag ^ ".coh") () in
          S.stack_on fs (Option.get lower);
          fs);
    ]
  in
  let sup = Sup.supervise ?budget ?backoff_ns ~name:tag levels in
  (disk, vmm, sup)

let test_dead_domain_raises () =
  Util.in_world (fun () ->
      let disk = Util.fresh_disk ~blocks:256 ~label:"dd.dev" () in
      let fs = DL.mount ~name:"dd.fs" disk in
      ignore (S.create fs (Util.name "a"));
      Sp_obj.Sdomain.kill fs.S.sfs_domain;
      Alcotest.(check bool) "door call into a dead domain raises" true
        (try
           ignore (S.open_file fs (Util.name "a"));
           false
         with Sp_core.Fserr.Dead_domain who -> who = "dd.fs"))

let test_supervised_restart () =
  Util.in_world (fun () ->
      let _disk, _vmm, sup = build "sr" in
      Fun.protect ~finally:(fun () -> Sup.unsupervise sup) @@ fun () ->
      let fs = Sup.handle sup in
      let f = S.create fs (Util.name "a") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "survives")) ;
      S.sync fs;
      Sup.kill sup "sr.coh";
      (* The next operation through the handle trips Dead_domain and the
         supervisor restarts the layer transparently. *)
      Util.check_str "synced data served after restart" "survives"
        (F.read_all (S.open_file fs (Util.name "a")));
      Alcotest.(check int) "one level rebuilt" 1 (Sup.restarts sup);
      Alcotest.(check int) "the coherency level" 1 (Sup.level_restarts sup "sr.coh");
      (* The restarted stack serves writes too. *)
      let g = S.open_file fs (Util.name "a") in
      ignore (F.write g ~pos:0 (Util.bytes_of_string "rewritten"));
      S.sync fs;
      Util.check_str "writes after restart" "rewritten"
        (F.read_all (S.open_file fs (Util.name "a"))))

let test_rest_for_one () =
  (* Killing a lower level also rebuilds everything stacked above it. *)
  Util.in_world (fun () ->
      let _disk, _vmm, sup = build "rf1" in
      Fun.protect ~finally:(fun () -> Sup.unsupervise sup) @@ fun () ->
      let fs = Sup.handle sup in
      ignore (S.create fs (Util.name "x"));
      S.sync fs;
      Sup.kill sup "rf1.disk";
      ignore (S.open_file fs (Util.name "x"));
      Alcotest.(check int) "disk + coherency rebuilt" 2 (Sup.restarts sup);
      Alcotest.(check int) "disk level" 1 (Sup.level_restarts sup "rf1.disk");
      Alcotest.(check int) "coherency level" 1 (Sup.level_restarts sup "rf1.coh"))

let test_epoch_fencing_and_reconcile () =
  Util.in_world (fun () ->
      let _disk, vmm, sup = build "ef" in
      Fun.protect ~finally:(fun () -> Sup.unsupervise sup) @@ fun () ->
      let fs = Sup.handle sup in
      let f = S.create fs (Util.name "hot") in
      let ps = Sp_vm.Vm_types.page_size in
      for p = 0 to 3 do
        ignore (F.write f ~pos:(p * ps) (Bytes.make ps (Char.chr (65 + p))))
      done;
      S.sync fs;
      let coh0 = Sup.current sup "ef.coh" in
      let clean0, _ = Sp_vm.Vmm.reconciled vmm in
      Sup.kill sup "ef.coh";
      (* Reading through the handle restarts the layer; the restarted
         pager is a new incarnation, so the client VMM must reconcile:
         clean pages are dropped and refetched — never served stale. *)
      let got = F.read_all (S.open_file fs (Util.name "hot")) in
      Alcotest.(check int) "full length served" (4 * ps) (Bytes.length got);
      for p = 0 to 3 do
        Alcotest.(check char)
          (Printf.sprintf "page %d refetched, not stale" p)
          (Char.chr (65 + p))
          (Bytes.get got (p * ps))
      done;
      Alcotest.(check int) "coherency level restarted once" 1
        (Sup.level_restarts sup "ef.coh");
      Alcotest.(check bool) "a new incarnation" false
        (Sup.current sup "ef.coh" == coh0);
      let clean1, _ = Sp_vm.Vmm.reconciled vmm in
      Alcotest.(check bool) "clean pages reconciled" true (clean1 > clean0))

let test_pre_crash_callback_dropped () =
  (* The surviving lower layer still holds a pager channel whose cache
     object is served by the dead incarnation: callback helpers must
     fence it (drop, not call). *)
  Util.in_world (fun () ->
      let t = Sp_vm.Pager_lib.create () in
      let dead = Sp_obj.Sdomain.create ~node:"local" "pcc.cache" in
      let noext = [] in
      let cache =
        {
          Sp_vm.Vm_types.c_domain = dead;
          c_label = "pcc";
          c_flush_back = (fun ~offset:_ ~size:_ -> []);
          c_deny_writes = (fun ~offset:_ ~size:_ -> []);
          c_write_back = (fun ~offset:_ ~size:_ -> []);
          c_delete_range = (fun ~offset:_ ~size:_ -> ());
          c_zero_fill = (fun ~offset:_ ~size:_ -> ());
          c_populate = (fun ~offset:_ ~access:_ _ -> ());
          c_destroy = (fun () -> ());
          c_exten = noext;
        }
      in
      let manager =
        {
          Sp_vm.Vm_types.cm_id = "pcc.mgr";
          cm_domain = Sp_obj.Sdomain.create ~node:"local" "pcc.mgr";
          cm_connect = (fun ~key:_ _ -> cache);
        }
      in
      let pager ~id:_ =
        {
          Sp_vm.Vm_types.p_domain = Sp_obj.Sdomain.create ~node:"local" "pcc.pager";
          p_label = "pcc";
          p_page_in = (fun ~offset:_ ~size ~access:_ -> Bytes.create size);
          p_page_out = (fun ~offset:_ _ -> ());
          p_write_out = (fun ~offset:_ _ -> ());
          p_sync = (fun ~offset:_ _ -> ());
          p_sync_v = (fun _ -> ());
          p_done_with = (fun () -> ());
          p_exten = noext;
        }
      in
      let r = Sp_vm.Pager_lib.bind t ~key:"k" ~make_pager:pager manager in
      Alcotest.(check int) "channel live while domain lives" 1
        (List.length (Sp_vm.Pager_lib.live_channels_for_key t ~key:"k"));
      Sp_obj.Sdomain.kill dead;
      Alcotest.(check int) "pre-crash callback channel fenced" 0
        (List.length (Sp_vm.Pager_lib.live_channels_for_key t ~key:"k"));
      Alcotest.(check bool) "fenced channel removed from the registry" true
        (Sp_vm.Pager_lib.find t ~id:r.Sp_vm.Vm_types.cr_channel_id = None);
      (* A rebind from a restarted manager incarnation reconnects instead
         of dedup-returning the dead channel. *)
      let r2 = Sp_vm.Pager_lib.bind t ~key:"k" ~make_pager:pager manager in
      Alcotest.(check bool) "fresh channel id" true
        (r2.Sp_vm.Vm_types.cr_channel_id <> r.Sp_vm.Vm_types.cr_channel_id))

let test_budget_give_up () =
  Util.in_world (fun () ->
      let _disk, _vmm, sup = build ~budget:0 "bg" in
      Fun.protect ~finally:(fun () -> Sup.unsupervise sup) @@ fun () ->
      let fs = Sup.handle sup in
      ignore (S.create fs (Util.name "a"));
      Sup.kill sup "bg.coh";
      Alcotest.(check bool) "budget 0 gives up" true
        (try
           ignore (S.open_file fs (Util.name "a"));
           false
         with Sup.Give_up _ -> true))

let test_backoff_deterministic () =
  (* The backoff is exponential in the level's restart count and charged
     to the simulated clock only — two identical runs advance the clock
     identically. *)
  let run () =
    Util.in_world (fun () ->
        let _disk, _vmm, sup = build ~backoff_ns:1_000_000 "bk" in
        Fun.protect ~finally:(fun () -> Sup.unsupervise sup) @@ fun () ->
        let fs = Sup.handle sup in
        ignore (S.create fs (Util.name "a"));
        S.sync fs;
        let restart () =
          Sup.kill sup "bk.coh";
          let t0 = Sp_sim.Simclock.now () in
          ignore (S.open_file fs (Util.name "a"));
          Sp_sim.Simclock.now () - t0
        in
        let d1 = restart () in
        let d2 = restart () in
        (d1, d2))
  in
  let d1, d2 = run () in
  let d1', d2' = run () in
  Alcotest.(check (pair int int)) "bit-identical across runs" (d1, d2) (d1', d2');
  (* The delta is the extra backoff step give or take a handful of 1 ns
     door crossings (the two recoveries make slightly different call
     sequences under the [fast] model). *)
  Alcotest.(check bool)
    (Printf.sprintf "second restart waits one extra backoff step (delta %d)"
       (d2 - d1))
    true
    (abs ((d2 - d1) - 1_000_000) < 64)

let test_disarmed_overhead_flat () =
  (* Acceptance: the liveness check must not add simulated cost to the
     door call — a cross-domain call costs exactly the model's
     cross-domain charge, nothing more. *)
  Util.in_world (fun () ->
      let d = Sp_obj.Sdomain.create ~node:"local" "ovh" in
      let model = Sp_sim.Cost_model.current () in
      let t0 = Sp_sim.Simclock.now () in
      Sp_obj.Door.call d (fun () -> ());
      Alcotest.(check int) "exactly the model's cross-domain cost"
        model.Sp_sim.Cost_model.cross_domain_call_ns
        (Sp_sim.Simclock.now () - t0))

let test_dfs_server_reconnect () =
  (* A DFS server domain crash: the client import holds the server by
     name, so once the supervisor restarts the server the same import
     keeps working (memoized remote files of the dead incarnation are
     invalidated). *)
  Util.in_world (fun () ->
      let net = Sp_dfs.Net.create () in
      let disk = Util.fresh_disk ~blocks:512 ~label:"dfss.dev" () in
      let base = DL.mount ~name:"dfss.base" disk in
      let vmm = Sp_vm.Vmm.create ~node:"srv" "dfss.vmm" in
      let levels =
        [
          Sup.level ~name:"dfss.srv" (fun ~lower ->
              let fs =
                Sp_dfs.Dfs.make_server ~node:"srv" ~net ~vmm ~name:"dfss.srv" ()
              in
              S.stack_on fs (Option.get lower);
              fs);
        ]
      in
      let sup = Sup.supervise ~base ~name:"dfss" levels in
      Fun.protect ~finally:(fun () -> Sup.unsupervise sup) @@ fun () ->
      let server = Sup.top sup in
      let import = Sp_dfs.Dfs.import ~net ~client_node:"cli" server in
      let f = S.create import (Util.name "doc") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "remote data"));
      S.sync import;
      Sup.kill sup "dfss.srv";
      Util.check_str "client reconnects to the restarted server" "remote data"
        (Sup.call (fun () -> F.read_all (S.open_file import (Util.name "doc"))));
      Alcotest.(check int) "server restarted once" 1 (Sup.restarts sup))

let test_sweep_point () =
  Util.in_world (fun () ->
      let outcome, counters =
        LCS.run_point ~supervised:true ~layer:"lcs.crypt" ~ops:6 ~seed:3
          ~kill_at:3
      in
      Alcotest.(check bool) "supervised point served" true (outcome = Sp_sweep.Live.Served);
      Alcotest.(check bool) "supervisor restarted" true
        (Sp_sweep.counter counters "restarts" > 0);
      let outcome, _ =
        LCS.run_point ~supervised:false ~layer:"lcs.crypt" ~ops:6 ~seed:3
          ~kill_at:3
      in
      Alcotest.(check bool) "unsupervised point unavailable" true
        (match outcome with Sp_sweep.Live.Unavailable _ -> true | _ -> false))

let suite =
  [
    Alcotest.test_case "dead domain raises" `Quick test_dead_domain_raises;
    Alcotest.test_case "supervised restart" `Quick test_supervised_restart;
    Alcotest.test_case "rest-for-one rebuild" `Quick test_rest_for_one;
    Alcotest.test_case "epoch fencing + reconcile" `Quick
      test_epoch_fencing_and_reconcile;
    Alcotest.test_case "pre-crash callback dropped" `Quick
      test_pre_crash_callback_dropped;
    Alcotest.test_case "restart budget gives up" `Quick test_budget_give_up;
    Alcotest.test_case "deterministic backoff" `Quick test_backoff_deterministic;
    Alcotest.test_case "disarmed overhead flat" `Quick test_disarmed_overhead_flat;
    Alcotest.test_case "dfs server reconnect" `Quick test_dfs_server_reconnect;
    Alcotest.test_case "layer crash sweep point" `Quick test_sweep_point;
  ]
